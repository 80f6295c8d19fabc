// Package rmi implements the two-level Recursive Model Index of Kraska et
// al. [24], the strongest learned-index baseline in the paper's Table 2.
//
// A root model (linear or cubic, per CDFShop [29]) routes a key to one of L
// second-level linear leaf models; the chosen leaf predicts the key's
// position. Per-leaf min/max training errors provide a bounded window for
// the last-mile search. As the paper notes (§3.8), RMI is not guaranteed
// monotone — with a cubic root the window becomes a hint and lookups
// validate and fall back to exponential search.
package rmi

import (
	"fmt"
	"math"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/search"
)

// RootKind selects the root model family.
type RootKind int

const (
	// RootLinear uses a least-squares line as the root. Leaf assignments
	// are contiguous and leaf predictions are clamped to their position
	// range, making the whole index monotone.
	RootLinear RootKind = iota
	// RootCubic uses a least-squares cubic root: better leaf routing on
	// curved CDFs, but monotonicity is lost (§3.8).
	RootCubic
)

func (k RootKind) String() string {
	if k == RootCubic {
		return "cubic"
	}
	return "linear"
}

// Config parameterises New.
type Config struct {
	// Leaves is the number of second-level models. 0 defaults to
	// max(1, N/1024).
	Leaves int
	// Root selects the root model family.
	Root RootKind
}

// Index is a built two-level RMI over a sorted key slice.
type Index[K kv.Key] struct {
	keys     []K
	n        int
	rootKind RootKind
	rootLin  *cdfmodel.Linear[K]
	rootCub  *cdfmodel.Cubic[K]
	leafMul  float64 // scales a root position estimate to a leaf id

	// Per-leaf linear models in reference form (ŷ = yref + slope·(x−xref))
	// plus clamping bounds and training error bounds.
	slope, xref, yref []float64
	clampLo, clampHi  []int32 // position range covered by the leaf
	errLo, errHi      []int32 // min/max signed training error
}

// New builds an RMI over sorted keys.
func New[K kv.Key](keys []K, cfg Config) (*Index[K], error) {
	n := len(keys)
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("rmi: keys are not sorted")
	}
	leaves := cfg.Leaves
	if leaves == 0 {
		leaves = n / 1024
	}
	if leaves < 1 {
		leaves = 1
	}
	if cfg.Root != RootLinear && cfg.Root != RootCubic {
		return nil, fmt.Errorf("rmi: unknown root kind %d", cfg.Root)
	}
	idx := &Index[K]{
		keys:     keys,
		n:        n,
		rootKind: cfg.Root,
		slope:    make([]float64, leaves),
		xref:     make([]float64, leaves),
		yref:     make([]float64, leaves),
		clampLo:  make([]int32, leaves),
		clampHi:  make([]int32, leaves),
		errLo:    make([]int32, leaves),
		errHi:    make([]int32, leaves),
	}
	if n == 0 {
		return idx, nil
	}
	switch cfg.Root {
	case RootLinear:
		idx.rootLin = cdfmodel.NewLinear(keys)
	case RootCubic:
		idx.rootCub = cdfmodel.NewCubic(keys)
	}
	idx.leafMul = float64(leaves) / float64(n)

	// Pass 1: route every key through the root and accumulate per-leaf
	// regression sums (offsets from the leaf's first key keep the sums
	// well conditioned for keys near 2^64, as in cdfmodel.fitLine).
	assign := make([]int32, n)
	cnt := make([]int64, leaves)
	x0 := make([]float64, leaves)
	sumOx := make([]float64, leaves)
	sumY := make([]float64, leaves)
	for i, k := range keys {
		leaf := idx.route(k)
		assign[i] = int32(leaf)
		if cnt[leaf] == 0 {
			x0[leaf] = float64(k)
		}
		cnt[leaf]++
		sumOx[leaf] += float64(k) - x0[leaf]
		sumY[leaf] += float64(i)
	}
	// Pass 2: covariance sums.
	sxx := make([]float64, leaves)
	sxy := make([]float64, leaves)
	for i, k := range keys {
		leaf := assign[i]
		c := float64(cnt[leaf])
		obar := sumOx[leaf] / c
		ybar := sumY[leaf] / c
		dx := (float64(k) - x0[leaf]) - obar
		sxx[leaf] += dx * dx
		sxy[leaf] += dx * (float64(i) - ybar)
	}
	for l := 0; l < leaves; l++ {
		if cnt[l] == 0 {
			// Empty leaf: fill in pass 3 from neighbouring coverage.
			idx.clampLo[l] = -1
			continue
		}
		c := float64(cnt[l])
		obar := sumOx[l] / c
		ybar := sumY[l] / c
		if sxx[l] > 0 {
			idx.slope[l] = sxy[l] / sxx[l]
		}
		idx.xref[l] = x0[l]
		idx.yref[l] = ybar - idx.slope[l]*obar
	}
	// Pass 3: clamping ranges, training error bounds, and empty-leaf fill.
	first := make([]int32, leaves)
	last := make([]int32, leaves)
	for l := range first {
		first[l] = math.MaxInt32
		last[l] = -1
	}
	for i := range keys {
		l := assign[i]
		if int32(i) < first[l] {
			first[l] = int32(i)
		}
		if int32(i) > last[l] {
			last[l] = int32(i)
		}
	}
	next := int32(n) // first position of the nearest assigned leaf to the right
	for l := leaves - 1; l >= 0; l-- {
		if last[l] < 0 {
			// No key routed here: any query routed here belongs just
			// before `next` (exact for a monotone root).
			idx.clampLo[l] = next
			idx.clampHi[l] = next
			idx.yref[l] = float64(next)
			continue
		}
		idx.clampLo[l] = first[l]
		idx.clampHi[l] = last[l]
		next = first[l]
	}
	for i, k := range keys {
		l := assign[i]
		pred := idx.leafPredict(int(l), k)
		e := int32(i - pred)
		if e < idx.errLo[l] {
			idx.errLo[l] = e
		}
		if e > idx.errHi[l] {
			idx.errHi[l] = e
		}
	}
	return idx, nil
}

// route returns the leaf id for a key.
func (idx *Index[K]) route(k K) int {
	var v float64
	if idx.rootLin != nil {
		v = idx.rootLin.PredictFloat(k)
	} else {
		v = float64(idx.rootCub.Predict(k))
	}
	l := int(v * idx.leafMul)
	if l < 0 {
		return 0
	}
	if max := len(idx.slope) - 1; l > max {
		return max
	}
	return l
}

// leafPredict evaluates leaf l at key k, clamped to the leaf's position
// coverage (which preserves the error bound and, for a linear root, makes
// the index monotone).
func (idx *Index[K]) leafPredict(l int, k K) int {
	v := idx.yref[l] + idx.slope[l]*(float64(k)-idx.xref[l])
	lo, hi := int(idx.clampLo[l]), int(idx.clampHi[l])
	if !(v > float64(lo)) { // also catches NaN
		return lo
	}
	if v >= float64(hi) {
		return hi
	}
	return int(v)
}

// Predict implements cdfmodel.Model: the raw two-level prediction.
func (idx *Index[K]) Predict(k K) int {
	if idx.n == 0 {
		return 0
	}
	p := idx.leafPredict(idx.route(k), k)
	if p >= idx.n {
		p = idx.n - 1
	}
	return p
}

// Monotone implements cdfmodel.Model: with a linear root, routing and
// clamped leaves make predictions non-decreasing; with a cubic root they
// are not guaranteed to be (§3.8).
func (idx *Index[K]) Monotone() bool { return idx.rootKind == RootLinear }

// SizeBytes implements cdfmodel.Model: root + per-leaf parameters.
func (idx *Index[K]) SizeBytes() int {
	perLeaf := 3*8 + 4*4 // slope/xref/yref + clamp and error bounds
	return 32 + len(idx.slope)*perLeaf
}

// Name implements cdfmodel.Model.
func (idx *Index[K]) Name() string { return "RMI" }

// Leaves returns the second-level model count.
func (idx *Index[K]) Leaves() int { return len(idx.slope) }

// Len returns the number of indexed keys.
func (idx *Index[K]) Len() int { return idx.n }

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): root + leaf evaluation (register arithmetic plus one
// non-cached parameter load once the model spills), then a bounded binary
// search across the mean last-mile window 2^Log2Error.
func (idx *Index[K]) EstimateNs(l func(s int) float64) float64 {
	if idx.n == 0 {
		return 0
	}
	window := int(math.Exp2(idx.Log2Error()))
	if window < 1 {
		window = 1
	}
	return l(1) + l(window)
}

// Find returns the smallest index i with keys[i] >= q (lower bound), using
// the per-leaf error bounds for a bounded last-mile search and falling back
// to exponential search when validation fails (non-monotone roots, or
// queries routed across leaf boundaries).
func (idx *Index[K]) Find(q K) int {
	if idx.n == 0 {
		return 0
	}
	l := idx.route(q)
	pred := idx.leafPredict(l, q)
	lo := pred + int(idx.errLo[l])
	hi := pred + int(idx.errHi[l])
	r := search.Window(idx.keys, lo, hi, q)
	if idx.validateAt(r, q) {
		return r
	}
	return search.Exponential(idx.keys, pred, q)
}

func (idx *Index[K]) validateAt(r int, q K) bool {
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

// Log2Error returns the mean log2 of the last-mile window — the "average
// Log2 error" metric of the paper's Fig. 8 (binary-search iterations).
func (idx *Index[K]) Log2Error() float64 {
	if idx.n == 0 {
		return 0
	}
	var acc float64
	for _, l := range idx.uniqueLeaves() {
		w := float64(idx.errHi[l]-idx.errLo[l]) + 1
		if w < 1 {
			w = 1
		}
		acc += float64(idx.leafCountApprox(l)) * math.Log2(w)
	}
	return acc / float64(idx.n)
}

// uniqueLeaves enumerates leaf ids (all of them; helper kept for clarity).
func (idx *Index[K]) uniqueLeaves() []int {
	out := make([]int, len(idx.slope))
	for i := range out {
		out[i] = i
	}
	return out
}

// leafCountApprox derives a leaf's key count from its clamp range.
func (idx *Index[K]) leafCountApprox(l int) int {
	if idx.clampHi[l] < idx.clampLo[l] {
		return 0
	}
	return int(idx.clampHi[l]-idx.clampLo[l]) + 1
}
