package concurrent

import (
	"math"
	"math/bits"

	"repro/internal/kv"
	"repro/internal/search"
)

// genDir is a radix directory over one sealed generation's two runs, the
// Shift-Table's idea applied to the pending writes: a lookup table over a
// trivial model (the key's high bits above the run's minimum) that
// narrows both runs' searches to one bucket for the price of one line
// read. RadixSpline's radix table (Kipf et al., aiDM 2020;
// internal/radixspline) is the same device over a spline.
//
// A key x ≥ lo falls in bucket min((x − lo) >> shift, last); the bucket
// count last+1 is the smallest power of two ≥ (len(ins)+len(dels))/4, and
// shift is the least that puts the run's largest key in the last bucket
// or below. off holds, per bucket b, the first ins index and the first
// dels index whose key falls in bucket b or later, side by side, then
// (len(ins), len(dels)): the four offsets that bound both of a query's
// windows sit in one 16-byte span, which shares one cache line with
// itself for seven buckets in eight (the eighth straddles two). Keys in
// earlier buckets are below any query of bucket b and keys in later ones
// above it, so the run's lower bound is the window's start plus the
// window's own lower bound. A query below lo takes bucket 0, whose
// windows answer 0; one past the last bucket takes the last, whose
// windows answer their full lengths. That is 2(last+2) uint32s, about
// 2.3 bytes per pending write.
//
// The directory depends only on the generation's own keys, so it is built
// once, when the generation is sealed (sealGen), and a compaction that
// carries the generation over verbatim keeps it valid. The write head has
// none: its runs change with every write.
type genDir[K kv.Key] struct {
	off   []uint32 // nil: no directory (the write head, or a run too long for uint32 offsets)
	lo    K
	shift uint8
	last  uint64
}

// newGenDir builds the directory over the sorted runs ins and dels.
func newGenDir[K kv.Key](ins, dels []K) genDir[K] {
	if uint64(len(ins)) > math.MaxUint32 || uint64(len(dels)) > math.MaxUint32 {
		return genDir[K]{}
	}
	total := len(ins) + len(dels)
	buckets := 1
	for buckets*4 < total {
		buckets <<= 1
	}
	var d genDir[K]
	var hi K
	switch {
	case len(ins) == 0 && len(dels) == 0:
	case len(dels) == 0:
		d.lo, hi = ins[0], ins[len(ins)-1]
	case len(ins) == 0:
		d.lo, hi = dels[0], dels[len(dels)-1]
	default:
		d.lo, hi = min(ins[0], dels[0]), max(ins[len(ins)-1], dels[len(dels)-1])
	}
	shift := bits.Len64(uint64(hi-d.lo)) - bits.TrailingZeros(uint(buckets))
	d.shift = uint8(min(max(shift, 0), 63))
	d.last = uint64(buckets - 1)
	d.off = make([]uint32, 2*(buckets+1))
	for col, run := range [2][]K{ins, dels} {
		i := 0
		for b := 0; b < buckets; b++ {
			d.off[2*b+col] = uint32(i)
			for i < len(run) && d.bucket(run[i]) <= uint64(b) {
				i++
			}
		}
		d.off[2*buckets+col] = uint32(len(run))
	}
	return d
}

// bucket is q's bucket, clamped into [0, last]. The clamps are masks
// taken from a SETcc, as in search.Branchless: the compiler turns a plain
// if or min here into a jump.
func (d *genDir[K]) bucket(q K) uint64 {
	var below, over uint64
	if q < d.lo {
		below = 1
	}
	b := uint64(q-d.lo) & (below - 1) >> (d.shift & 63)
	if b > d.last {
		over = 1
	}
	return b ^ (b^d.last)&-over
}

// sealGen returns g with its directory, built if g has none: the form a
// generation takes once it is below the write head. A generation readers
// may already see (the outgoing head) is copied, never written.
func sealGen[K kv.Key](g *generation[K]) *generation[K] {
	if g.dir.off != nil {
		return g
	}
	return &generation[K]{ins: g.ins, dels: g.dels, dir: newGenDir(g.ins, g.dels)}
}

// rank is a sealed generation's correction to a rank below it: inserts
// below q add one each, tombstones below q remove one each. It reads the
// directory's four offsets and searches the two bucket windows; without a
// directory (a run too long for one) it searches both whole runs. Every
// search is branch-free (search.Branchless): a run's comparisons against
// uniform queries are coin flips a branch predictor cannot learn.
func (g *generation[K]) rank(q K) int {
	d := &g.dir
	if d.off == nil {
		return search.Branchless(g.ins, q) - search.Branchless(g.dels, q)
	}
	b := 2 * d.bucket(q)
	o := d.off[b : b+4 : b+4]
	il, dl, ih, dh := int(o[0]), int(o[1]), int(o[2]), int(o[3])
	return il + search.Branchless(g.ins[il:ih], q) - dl - search.Branchless(g.dels[dl:dh], q)
}
