// Package radixspline implements the RadixSpline learned index of Kipf et
// al. [22], the paper's "RS" baseline and the host model of its
// "RS+Shift-Table" configuration.
//
// A single pass fits an error-bounded linear spline over the CDF (the
// greedy spline corridor of Neumann & Michel [32]); a radix table over
// fixed key-prefix bits narrows the spline-segment search at query time.
// The spline is monotone, so RadixSpline is a valid CDF model for a
// Shift-Table layer (§3.8: "the RadixSplines learned index always produces
// a valid (increasing) CDF").
package radixspline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/kv"
	"repro/internal/search"
)

// Config parameterises New.
type Config struct {
	// MaxError is the spline corridor half-width ε: a lookup's last-mile
	// window is at most 2ε+1 records. 0 defaults to 32.
	MaxError int
	// RadixBits is the prefix-table width r (2^r+1 entries). 0 defaults
	// to 18, SOSD's usual setting scaled down for our dataset sizes.
	RadixBits int
}

// Index is a built RadixSpline over a sorted key slice.
type Index[K kv.Key] struct {
	keys    []K
	n       int
	maxErr  int
	shift   uint
	rbits   int
	table   []int32 // radix prefix → first spline point with that prefix
	splineX []K     // spline point keys (strictly increasing)
	splineY []int32 // spline point positions (first-occurrence, §3.2)
}

// New builds a RadixSpline over sorted keys in a single pass.
func New[K kv.Key](keys []K, cfg Config) (*Index[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("radixspline: keys are not sorted")
	}
	maxErr := cfg.MaxError
	if maxErr == 0 {
		maxErr = 32
	}
	if maxErr < 1 {
		return nil, fmt.Errorf("radixspline: invalid max error %d", cfg.MaxError)
	}
	rbits := cfg.RadixBits
	if rbits == 0 {
		rbits = 18
	}
	if rbits < 1 || rbits > 28 {
		return nil, fmt.Errorf("radixspline: radix bits %d out of range [1,28]", cfg.RadixBits)
	}
	idx := &Index[K]{keys: keys, n: len(keys), maxErr: maxErr, rbits: rbits}
	if idx.n == 0 {
		idx.table = []int32{0, 0}
		return idx, nil
	}
	idx.buildSpline()
	idx.buildRadixTable()
	return idx, nil
}

// buildSpline runs the greedy spline corridor over the distinct keys with
// first-occurrence positions: starting from the last emitted spline point it
// keeps the slope corridor that passes within ±ε of every seen point and
// emits a new point when the corridor empties.
func (idx *Index[K]) buildSpline() {
	keys := idx.keys
	eps := float64(idx.maxErr)
	emit := func(x K, y int32) {
		idx.splineX = append(idx.splineX, x)
		idx.splineY = append(idx.splineY, y)
	}
	emit(keys[0], 0)
	baseX, baseY := float64(keys[0]), 0.0
	sLo, sHi := math.Inf(-1), math.Inf(1)
	var prevX K = keys[0]
	var prevPos int32
	for i := 1; i < idx.n; i++ {
		if keys[i] == keys[i-1] {
			continue // duplicates share their run's first position (§3.2)
		}
		x, y := keys[i], int32(i)
		dx := float64(x) - baseX
		// The violation test uses the exact slope to this point: a point
		// is accepted only if the segment hitting it exactly stays inside
		// the corridor, i.e. within ±ε of every previously accepted point.
		// That is what makes emitting the *previous* point as a knot safe:
		// the knot segment interpolates it exactly and its slope was in
		// the corridor, so no intermediate point exceeds ε.
		s := (float64(y) - baseY) / dx
		if s < sLo || s > sHi {
			emit(prevX, prevPos)
			baseX, baseY = float64(prevX), float64(prevPos)
			dx = float64(x) - baseX
			sLo, sHi = math.Inf(-1), math.Inf(1)
		}
		// Tighten the corridor with this point's ±ε band.
		if lo := (float64(y) - eps - baseY) / dx; lo > sLo {
			sLo = lo
		}
		if hi := (float64(y) + eps - baseY) / dx; hi < sHi {
			sHi = hi
		}
		prevX, prevPos = x, y
	}
	last := idx.splineX[len(idx.splineX)-1]
	if prevX != last || len(idx.splineX) == 1 {
		if prevX == keys[0] {
			// All keys equal: a single spline point suffices, but lookups
			// need a second anchor; duplicate it at the run end.
			emit(keys[0], 0)
		} else {
			emit(prevX, prevPos)
		}
	}
}

// buildRadixTable fills table[p] = the first spline index whose key has
// radix prefix >= p. The shift is chosen from the largest key so the top
// rbits of the populated key range spread over the table.
func (idx *Index[K]) buildRadixTable() {
	maxKey := uint64(idx.keys[idx.n-1])
	keyBits := bits.Len64(maxKey)
	if keyBits < 1 {
		keyBits = 1 // all-zero keys: one prefix bucket
	}
	if idx.rbits > keyBits {
		idx.rbits = keyBits
	}
	idx.shift = uint(keyBits - idx.rbits)
	size := 1 << idx.rbits
	idx.table = make([]int32, size+1)
	prev := 0
	for s, x := range idx.splineX {
		p := int(uint64(x) >> idx.shift)
		if p > size-1 {
			p = size - 1
		}
		for prev <= p {
			idx.table[prev] = int32(s)
			prev++
		}
		// table[p] now points at (or before) the first spline point in
		// prefix bucket p; entries advance monotonically.
		_ = s
	}
	for ; prev <= size; prev++ {
		idx.table[prev] = int32(len(idx.splineX))
	}
}

// segment locates the spline segment [j-1, j] bracketing q, using the radix
// table to bound the binary search.
func (idx *Index[K]) segment(q K) int {
	p := int(uint64(q) >> idx.shift)
	if p >= len(idx.table)-1 {
		p = len(idx.table) - 2
	}
	lo, hi := int(idx.table[p]), int(idx.table[p+1])
	if hi > len(idx.splineX) {
		hi = len(idx.splineX)
	}
	// First spline key >= q within [lo, hi).
	j := search.BinaryRange(idx.splineX, lo, hi, q)
	if j == 0 {
		j = 1
	}
	if j >= len(idx.splineX) {
		j = len(idx.splineX) - 1
	}
	return j
}

// Predict implements cdfmodel.Model: linear interpolation on the bracketing
// spline segment, clamped to [0, N-1].
func (idx *Index[K]) Predict(q K) int {
	if idx.n == 0 {
		return 0
	}
	if q <= idx.splineX[0] {
		return 0
	}
	last := len(idx.splineX) - 1
	if q >= idx.splineX[last] {
		return int(idx.splineY[last])
	}
	j := idx.segment(q)
	x0, y0 := float64(idx.splineX[j-1]), float64(idx.splineY[j-1])
	x1, y1 := float64(idx.splineX[j]), float64(idx.splineY[j])
	if x1 <= x0 {
		return int(idx.splineY[j])
	}
	v := y0 + (float64(q)-x0)*(y1-y0)/(x1-x0)
	if !(v > 0) {
		return 0
	}
	if v >= float64(idx.n-1) {
		return idx.n - 1
	}
	return int(v)
}

// Monotone implements cdfmodel.Model: the spline interpolates strictly
// increasing points, so predictions are non-decreasing (§3.8).
func (idx *Index[K]) Monotone() bool { return true }

// SizeBytes implements cdfmodel.Model: radix table plus spline points.
func (idx *Index[K]) SizeBytes() int {
	var keyBytes int
	var zero K
	switch any(zero).(type) {
	case uint32:
		keyBytes = 4
	default:
		keyBytes = 8
	}
	return len(idx.table)*4 + len(idx.splineX)*(keyBytes+4)
}

// Name implements cdfmodel.Model.
func (idx *Index[K]) Name() string { return "RS" }

// MaxError returns the spline corridor half-width ε.
func (idx *Index[K]) MaxError() int { return idx.maxErr }

// Len returns the number of indexed keys.
func (idx *Index[K]) Len() int { return idx.n }

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): one non-cached radix-table probe, the spline segment scan
// (in-cache, folded into the probe), and a binary search over the ±ε
// corridor.
func (idx *Index[K]) EstimateNs(l func(s int) float64) float64 {
	if idx.n == 0 {
		return 0
	}
	return l(1) + l(2*idx.maxErr+1)
}

// Find returns the smallest index i with keys[i] >= q, searching the ±ε
// window around the spline prediction. Long duplicate runs can push the
// true lower bound of a non-indexed query outside the window (the spline is
// fitted to first-occurrence positions), so the result is validated with a
// fallback to exponential search.
func (idx *Index[K]) Find(q K) int {
	if idx.n == 0 {
		return 0
	}
	pred := idx.Predict(q)
	r := search.Window(idx.keys, pred-idx.maxErr, pred+idx.maxErr, q)
	if idx.valid(r, q) {
		return r
	}
	return search.Exponential(idx.keys, pred, q)
}

func (idx *Index[K]) valid(r int, q K) bool {
	if r < 0 || r > idx.n {
		return false
	}
	if r > 0 && idx.keys[r-1] >= q {
		return false
	}
	if r < idx.n && idx.keys[r] < q {
		return false
	}
	return true
}
