package updatable

import (
	"testing"

	"repro/internal/kv"
)

// FuzzLookup drives an op sequence — inserts, deletes, lookups, and forced
// compactions — decoded from the fuzz input against a reference sorted
// multiset, checking ranks, existence, and batch ≡ scalar along the way.
// The seed corpus covers duplicate-heavy churn, adversarially drifted key
// spacing, the empty index, and both sides of the first base tombstone
// (which allocates the tombstone bitmap and Fenwick tree): a delete as the
// very first op, and a delete right after a compaction dropped that state.
func FuzzLookup(f *testing.F) {
	f.Add(uint64(7), uint8(16), []byte{0x10, 0x82, 0x31, 0xF4, 0x05})
	f.Add(uint64(3), uint8(1), []byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x80, 0x80})  // duplicate-heavy: tiny key space
	f.Add(uint64(9), uint8(255), []byte{0xFF, 0x40, 0x13, 0x77, 0xAA, 0x02})      // drifted: huge sparse key space
	f.Add(uint64(0), uint8(8), []byte{})                                          // empty index, no ops
	f.Add(uint64(41), uint8(1), []byte{0x02, 0x04, 0x07, 0x04, 0x0C, 0x04})       // three base deletes first: the first allocates
	f.Add(uint64(41), uint8(1), []byte{0x00, 0x01, 0x03, 0x02, 0x04, 0x07, 0x04}) // insert, compact, then base deletes

	f.Fuzz(func(t *testing.T, seed uint64, spread uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
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
		ix, err := New(initial, Config{MaxDelta: 64})
		if err != nil {
			t.Fatal(err)
		}
		ref := append([]uint64(nil), initial...)
		domain := cur + uint64(spread) + 2

		for opIx, b := range ops {
			x = x*0xD1342543DE82EF95 + uint64(b) + 3
			k := x % domain
			switch b % 5 {
			case 0, 1: // insert
				if err := ix.Insert(k); err != nil {
					t.Fatal(err)
				}
				i := kv.UpperBound(ref, k)
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = k
			case 2: // delete
				want := false
				if i := kv.LowerBound(ref, k); i < len(ref) && ref[i] == k {
					ref = append(ref[:i], ref[i+1:]...)
					want = true
				}
				if got := ix.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", opIx, k, got, want)
				}
			case 3: // forced compaction
				if err := ix.Compact(); err != nil {
					t.Fatal(err)
				}
			default: // lookup
				want := kv.LowerBound(ref, k)
				wantFound := want < len(ref) && ref[want] == k
				rank, found := ix.Lookup(k)
				if rank != want || found != wantFound {
					t.Fatalf("op %d: Lookup(%d) = (%d,%v), want (%d,%v)", opIx, k, rank, found, want, wantFound)
				}
			}
			if ix.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", opIx, ix.Len(), len(ref))
			}
		}

		// Final sweep: batch ≡ scalar ≡ reference over a query ladder.
		qs := make([]uint64, 0, 64)
		for i := 0; i < 64; i++ {
			x = x*0x9E3779B97F4A7C15 + 17
			qs = append(qs, x%(domain+2))
		}
		ranks, found := ix.LookupBatch(qs, nil, nil)
		out := ix.FindBatch(qs, nil)
		for i, q := range qs {
			want := kv.LowerBound(ref, q)
			if out[i] != want || ranks[i] != want {
				t.Fatalf("batch rank for %d = (%d,%d), want %d", q, out[i], ranks[i], want)
			}
			if wantFound := want < len(ref) && ref[want] == q; found[i] != wantFound {
				t.Fatalf("batch found for %d = %v, want %v", q, found[i], wantFound)
			}
		}
	})
}
