package concurrent

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/kv"
)

// checkGenDir builds the directory over ins and dels (both sorted) and
// checks its shape and its correction. Shape: 2(B+1) offsets for B, the
// smallest power of two ≥ (len(ins)+len(dels))/4, buckets, and the least
// shift that keeps the run's largest key in the last bucket or below (63
// when one bucket spans 64 bits). Correction: at every query in qs, at
// every run key and its neighbours, at the key type's extremes and at
// both sides of every bucket edge, the directory's rank equals the two
// whole-run searches.
func checkGenDir[K kv.Key](t *testing.T, ins, dels, qs []K) {
	t.Helper()
	if !slices.IsSorted(ins) || !slices.IsSorted(dels) {
		t.Fatal("checkGenDir needs sorted runs")
	}
	g := sealGen(&generation[K]{ins: ins, dels: dels})
	d := &g.dir
	total := len(ins) + len(dels)
	buckets := 1
	for buckets*4 < total {
		buckets <<= 1
	}
	if d.off == nil || len(d.off) != 2*(buckets+1) || d.last != uint64(buckets-1) {
		t.Fatalf("%d pending: %d offsets, last bucket %d; want %d buckets", total, len(d.off), d.last, buckets)
	}
	all := slices.Sorted(slices.Values(slices.Concat(ins, dels)))
	if total > 0 {
		lo, hi := all[0], all[total-1]
		span := uint64(hi - lo)
		fits := span>>d.shift <= d.last || d.shift == 63 // 63: one bucket over a 64-bit span
		least := d.shift == 0 || span>>(d.shift-1) > d.last
		if d.lo != lo || !fits || !least {
			t.Fatalf("directory lo %d shift %d last %d over keys [%d, %d]: not the least shift", d.lo, d.shift, d.last, lo, hi)
		}
	}

	top := kv.MaxKey[K]()
	probe := append(slices.Clone(qs), 0, 1, top-1, top)
	for _, k := range all {
		probe = append(probe, k-1, k, k+1)
	}
	for b := uint64(0); b <= d.last+1; b++ {
		edge := d.lo + K(b<<d.shift)
		probe = append(probe, edge-1, edge, edge+1)
	}
	for _, q := range probe {
		want := kv.LowerBound(ins, q) - kv.LowerBound(dels, q)
		if got := g.rank(q); got != want {
			t.Fatalf("ins %v dels %v: directory rank(%d) = %d, want %d (bucket %d)", ins, dels, q, got, want, d.bucket(q))
		}
	}
}

// TestGenDir pins the directory's edge cases for both key widths: empty
// runs, all-equal keys, one outlier at the key type's maximum (the span
// is the whole key range), the same value inserted and tombstoned, and a
// run long enough to fill thousands of buckets.
func TestGenDir(t *testing.T) {
	t.Run("uint32", testGenDir[uint32])
	t.Run("uint64", testGenDir[uint64])
}

func testGenDir[K kv.Key](t *testing.T) {
	top := kv.MaxKey[K]()
	seq := func(n int, step K) []K {
		out := make([]K, n)
		for i := range out {
			out[i] = K(i) * step
		}
		return out
	}
	cases := []struct {
		name      string
		ins, dels []K
	}{
		{"empty", nil, nil},
		{"empty dels", seq(9, 3), nil},
		{"empty ins", nil, seq(9, 3)},
		{"one key", []K{7}, nil},
		{"all equal", slices.Repeat([]K{42}, 100), slices.Repeat([]K{42}, 30)},
		{"outlier at max", append(seq(500, 11), top), seq(100, 7)},
		{"zero and max only", []K{0, 0, top}, []K{top}},
		{"value in both", []K{5, 9, 9, 12}, []K{9}},
		{"wide uniform", seq(3000, top/2999), seq(1000, top/999)},
		{"dense", seq(5376, 2), seq(1792, 5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkGenDir(t, c.ins, c.dels, nil)
		})
	}
}

// FuzzGenDir checks the directory's shape and correction against the two
// whole-run searches over runs decoded from the fuzz input. Each 8-byte
// word is one key: its low bit picks ins or dels, the next bit makes it a
// query instead. mode bit 0 picks the key width; bits 1–2 how the keys
// spread: the word's high bits, 2^16 values, 16 values (duplicates), or
// the whole word rotated by mode>>3; bit 7 adds an outlier at the key
// type's maximum.
func FuzzGenDir(f *testing.F) {
	// words returns n pseudo-random words, so the seeds spread over many
	// buckets.
	words := func(n int, x uint64) []byte {
		out := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			x = x*0x9E3779B97F4A7C15 + 1
			out = binary.LittleEndian.AppendUint64(out, x^x>>29)
		}
		return out
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{1, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(0), words(300, 1))                                                           // uint64 keys over the whole range
	f.Add(uint8(1), words(300, 2))                                                           // uint32 keys over the whole range
	f.Add(uint8(3), words(500, 3))                                                           // uint32 keys, 2^16 values
	f.Add(uint8(4|0x80), words(200, 4))                                                      // 16 values and an outlier at the maximum
	f.Add(uint8(6|5<<3), words(400, 5))                                                      // rotated words
	f.Add(uint8(9), slices.Repeat([]byte{0xFF, 0xFE, 0x00, 0x80, 0x10, 0x31, 0x2, 0x1}, 25)) // all equal
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		if len(data) > 8*4096 {
			data = data[:8*4096]
		}
		var words []uint64
		for ; len(data) >= 8; data = data[8:] {
			words = append(words, binary.LittleEndian.Uint64(data))
		}
		if mode&1 == 0 {
			fuzzGenDir[uint64](t, mode, words)
		} else {
			fuzzGenDir[uint32](t, mode, words)
		}
	})
}

func fuzzGenDir[K kv.Key](t *testing.T, mode uint8, words []uint64) {
	var ins, dels, qs []K
	for _, w := range words {
		k := K(w >> 2)
		switch (mode >> 1) & 3 {
		case 1:
			k %= 1 << 16
		case 2:
			k %= 16
		case 3:
			k = K(bits.RotateLeft64(w, int(mode>>3)))
		}
		switch {
		case w&2 != 0:
			qs = append(qs, k)
		case w&1 != 0:
			ins = append(ins, k)
		default:
			dels = append(dels, k)
		}
	}
	if mode&0x80 != 0 {
		ins = append(ins, kv.MaxKey[K]())
	}
	slices.Sort(ins)
	slices.Sort(dels)
	checkGenDir(t, ins, dels, qs)
}
