package concurrent

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/kv"
)

// FuzzLookup drives an op sequence — inserts, deletes, lookups, and forced
// compactions — decoded from the fuzz input on a closed index (so the op
// stream's compactions are the only ones) against a reference sorted
// multiset, checking ranks, existence and Len after every op, and batch ≡
// scalar and Scan at the end. The seed corpus covers duplicate-heavy
// churn, adversarially drifted key spacing, the empty index, deletes as
// the very first ops and right after a compaction, a run of writes that
// crosses a maxHeadLen head seal before deleting into the sealed run, and
// one that crosses three seals, so reads go through the sealed run's
// directory as three rebuilds left it.
func FuzzLookup(f *testing.F) {
	f.Add(uint64(7), uint8(16), []byte{0x10, 0x82, 0x31, 0xF4, 0x05})
	f.Add(uint64(3), uint8(1), []byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x80, 0x80})  // duplicate-heavy: tiny key space
	f.Add(uint64(9), uint8(255), []byte{0xFF, 0x40, 0x13, 0x77, 0xAA, 0x02})      // drifted: huge sparse key space
	f.Add(uint64(0), uint8(8), []byte{})                                          // empty index, no ops
	f.Add(uint64(41), uint8(1), []byte{0x02, 0x04, 0x07, 0x04, 0x0C, 0x04})       // three base deletes first
	f.Add(uint64(41), uint8(1), []byte{0x00, 0x01, 0x03, 0x02, 0x04, 0x07, 0x04}) // insert, compact, then base deletes
	// 1,200 inserts (with lookups) seal the head at 1,024 writes; the
	// deletes after it land on the sealed run and the base.
	f.Add(uint64(77), uint8(3), append(bytes.Repeat([]byte{0x00, 0x01, 0x04}, 600), bytes.Repeat([]byte{0x02, 0x07, 0x04}, 60)...))
	// 3,200 inserts seal the head at writes 1,025, 2,049 and 3,073.
	f.Add(uint64(131), uint8(40), append(bytes.Repeat([]byte{0x00, 0x01, 0x05, 0x06, 0x04}, 800), bytes.Repeat([]byte{0x02, 0x09}, 40)...))

	f.Fuzz(func(t *testing.T, seed uint64, spread uint8, ops []byte) {
		if len(ops) > 4*maxHeadLen {
			ops = ops[:4*maxHeadLen]
		}
		// Initial keys: deterministic expansion, sorted by construction.
		n := int(seed % 300)
		initial := make([]uint64, n)
		x := seed
		cur := uint64(0)
		for i := range initial {
			x = x*0x9E3779B97F4A7C15 + 1
			cur += (x >> 40) % (uint64(spread) + 1)
			initial[i] = cur
		}
		ix, err := New(initial, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
		ref := &reference{keys: slices.Clone(initial)}
		domain := cur + uint64(spread) + 2

		for opIx, b := range ops {
			x = x*0xD1342543DE82EF95 + uint64(b) + 3
			k := x % domain
			switch b % 5 {
			case 0, 1: // insert
				ix.Insert(k)
				ref.insert(k)
			case 2: // delete
				if got, want := ix.Delete(k), ref.delete(k); got != want {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", opIx, k, got, want)
				}
			case 3: // forced compaction
				if err := ix.Compact(); err != nil {
					t.Fatal(err)
				}
			default: // lookup
				want := kv.LowerBound(ref.keys, k)
				wantFound := want < len(ref.keys) && ref.keys[want] == k
				if rank, found := ix.Lookup(k); rank != want || found != wantFound {
					t.Fatalf("op %d: Lookup(%d) = (%d,%v), want (%d,%v)", opIx, k, rank, found, want, wantFound)
				}
			}
			if ix.Len() != len(ref.keys) {
				t.Fatalf("op %d: Len = %d, want %d", opIx, ix.Len(), len(ref.keys))
			}
		}

		// Final sweep: batch ≡ scalar ≡ reference over a query ladder
		// longer than one 256-lane lockstep chunk.
		qs := make([]uint64, 0, 300)
		for i := 0; i < 300; i++ {
			x = x*0x9E3779B97F4A7C15 + 17
			qs = append(qs, x%(domain+2))
		}
		out := ix.FindBatch(qs, nil)
		for i, q := range qs {
			want := kv.LowerBound(ref.keys, q)
			if got := ix.Find(q); out[i] != want || got != want {
				t.Fatalf("rank for %d: batch %d, scalar %d, want %d", q, out[i], got, want)
			}
			wantFound := want < len(ref.keys) && ref.keys[want] == q
			if r, f := ix.Lookup(q); r != want || f != wantFound {
				t.Fatalf("Lookup(%d) = (%d,%v), want (%d,%v)", q, r, f, want, wantFound)
			}
		}
		// And the scan: the whole multiset, then the window [qs[0], qs[1]].
		for _, w := range [][2]uint64{{0, ^uint64(0)}, {min(qs[0], qs[1]), max(qs[0], qs[1])}} {
			var got []uint64
			ix.Scan(w[0], w[1], func(k uint64) bool { got = append(got, k); return true })
			want := ref.keys[kv.LowerBound(ref.keys, w[0]):kv.UpperBound(ref.keys, w[1])]
			if !slices.Equal(got, want) {
				t.Fatalf("Scan(%d, %d) returned %d keys, want %d", w[0], w[1], len(got), len(want))
			}
		}
	})
}
