// Package pgm implements a Piecewise Geometric Model index (Ferragina &
// Vinciguerra [11]), the spline-family learned index the paper cites as
// related work. It serves as an extension baseline beyond the paper's
// Table 2 set and as another monotone CDF model a Shift-Table can correct.
//
// Each level is a sequence of ε-bounded linear segments built with the
// one-pass shrinking-cone algorithm (as in FITing-tree [12], a near-optimal
// O(n) variant of the PGM's optimal construction); upper levels index the
// first keys of the level below until a level fits a small root.
package pgm

import (
	"fmt"

	"repro/internal/kv"
	"repro/internal/search"
)

// Config parameterises New.
type Config struct {
	// Epsilon is the per-segment error bound ε. 0 defaults to 32.
	Epsilon int
	// RootFanout stops the recursion once a level has at most this many
	// segments. 0 defaults to 32.
	RootFanout int
}

// segment is one ε-bounded line: position ≈ pos0 + slope·(key − key0) for
// keys in [key0, nextKey).
type segment[K kv.Key] struct {
	key0  K
	slope float64
	pos0  int32 // position of key0 in the level below (or the data)
	end   int32 // last position covered by this segment
}

// Index is a built multi-level PGM over a sorted key slice.
type Index[K kv.Key] struct {
	keys   []K
	n      int
	eps    int
	levels [][]segment[K] // levels[0] indexes the data; higher levels index level keys
}

// New builds a PGM index over sorted keys.
func New[K kv.Key](keys []K, cfg Config) (*Index[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("pgm: keys are not sorted")
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 32
	}
	if eps < 1 {
		return nil, fmt.Errorf("pgm: invalid epsilon %d", cfg.Epsilon)
	}
	fan := cfg.RootFanout
	if fan == 0 {
		fan = 32
	}
	if fan < 1 {
		return nil, fmt.Errorf("pgm: invalid root fanout %d", cfg.RootFanout)
	}
	idx := &Index[K]{keys: keys, n: len(keys), eps: eps}
	if idx.n == 0 {
		return idx, nil
	}
	// Level 0 over the data (first-occurrence positions, §3.2 semantics).
	level := buildSegments(keys, eps)
	idx.levels = append(idx.levels, level)
	// Recurse over segment first-keys until the level fits the root.
	for len(level) > fan {
		levelKeys := make([]K, len(level))
		for i, s := range level {
			levelKeys[i] = s.key0
		}
		level = buildSegments(levelKeys, eps)
		idx.levels = append(idx.levels, level)
	}
	return idx, nil
}

// buildSegments runs the shrinking-cone pass: a segment grows while some
// slope keeps every covered (key, firstOcc) point within ±ε; when the cone
// empties, the segment is closed with the cone's midpoint slope and a new
// one starts at the current key.
func buildSegments[K kv.Key](keys []K, eps int) []segment[K] {
	n := len(keys)
	var segs []segment[K]
	e := float64(eps)
	start := 0
	startKey := keys[0]
	sLo, sHi := -1e300, 1e300
	lastCovered := 0
	closeSeg := func(endPos int) {
		slope := 0.0
		switch {
		case sLo <= 0 && sHi >= 1e300: // single-point segment
		case sHi >= 1e300:
			slope = sLo
		case sLo <= -1e300:
			slope = sHi
		default:
			slope = (sLo + sHi) / 2
		}
		if slope < 0 {
			slope = 0
		}
		segs = append(segs, segment[K]{key0: startKey, slope: slope, pos0: int32(start), end: int32(endPos)})
	}
	for i := 1; i < n; i++ {
		if keys[i] == keys[i-1] {
			continue // duplicates: constrain only on first occurrence
		}
		dx := float64(keys[i]) - float64(startKey)
		y := float64(i - start)
		lo := (y - e) / dx
		hi := (y + e) / dx
		if lo > sHi || hi < sLo {
			// Cone empty: close at the previous covered point.
			closeSeg(lastCovered)
			start = i
			startKey = keys[i]
			sLo, sHi = -1e300, 1e300
			lastCovered = i
			continue
		}
		if lo > sLo {
			sLo = lo
		}
		if hi < sHi {
			sHi = hi
		}
		lastCovered = i
	}
	closeSeg(n - 1)
	return segs
}

// predictIn evaluates a segment at key q, clamped to the segment's covered
// position range (which keeps level predictions monotone).
func (s *segment[K]) predictIn(q K) int {
	v := float64(s.pos0) + s.slope*(float64(q)-float64(s.key0))
	if !(v > float64(s.pos0)) {
		return int(s.pos0)
	}
	if v >= float64(s.end) {
		return int(s.end)
	}
	return int(v)
}

// findSegment descends the levels to the level-0 segment responsible for q.
func (idx *Index[K]) findSegment(q K) *segment[K] {
	top := idx.levels[len(idx.levels)-1]
	// Root: binary search the (small) top level for the last key0 <= q.
	s := lastAtMost(top, q)
	for lvl := len(idx.levels) - 2; lvl >= 0; lvl-- {
		level := idx.levels[lvl]
		// The upper level predicts this segment's index within ±ε.
		pred := s.predictIn(q)
		lo, hi := pred-idx.eps, pred+idx.eps+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(level) {
			hi = len(level)
		}
		s = lastAtMostRange(level, lo, hi, q)
	}
	return s
}

// lastAtMost returns the last segment with key0 <= q (or the first segment
// when q precedes everything).
func lastAtMost[K kv.Key](segs []segment[K], q K) *segment[K] {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].key0 <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return &segs[0]
	}
	return &segs[lo-1]
}

// lastAtMostRange is lastAtMost over segs[lo:hi], with a widening fallback
// if the ε window missed (defensive; should not happen for in-bound keys).
func lastAtMostRange[K kv.Key](segs []segment[K], lo, hi int, q K) *segment[K] {
	if lo >= len(segs) {
		lo = len(segs) - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	// The responsible segment is outside [lo, hi) iff the window's left
	// edge already exceeds q or the segment right of the window still
	// starts at or below q; redo globally in that case (defensive — the ε
	// guarantee makes this unreachable for keys the level was built on).
	if (lo > 0 && segs[lo].key0 > q) || (hi < len(segs) && segs[hi].key0 <= q) {
		return lastAtMost(segs, q)
	}
	return lastAtMost(segs[lo:hi], q)
}

// Predict implements cdfmodel.Model: the level-0 segment's clamped estimate.
func (idx *Index[K]) Predict(q K) int {
	if idx.n == 0 {
		return 0
	}
	return idx.findSegment(q).predictIn(q)
}

// Monotone implements cdfmodel.Model: segments are selected by key order
// and clamped to disjoint increasing position ranges.
func (idx *Index[K]) Monotone() bool { return true }

// SizeBytes implements cdfmodel.Model.
func (idx *Index[K]) SizeBytes() int {
	var keyBytes int
	var zero K
	switch any(zero).(type) {
	case uint32:
		keyBytes = 4
	default:
		keyBytes = 8
	}
	total := 0
	for _, level := range idx.levels {
		total += len(level) * (keyBytes + 8 + 4 + 4)
	}
	return total
}

// Name implements cdfmodel.Model.
func (idx *Index[K]) Name() string { return "PGM" }

// Len returns the number of indexed keys.
func (idx *Index[K]) Len() int { return idx.n }

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised): one ±ε binary search per recursive level to locate the
// segment, then the ±ε last-mile search — each level one non-cached probe
// plus an in-corridor search.
func (idx *Index[K]) EstimateNs(l func(s int) float64) float64 {
	if idx.n == 0 {
		return 0
	}
	levels := float64(len(idx.levels))
	if levels < 1 {
		levels = 1
	}
	return levels*l(1) + l(2*idx.eps+1)
}

// Find returns the smallest index i with keys[i] >= q, searching the ±ε
// window around the PGM prediction, with validation and exponential
// fallback for the duplicate-run edge cases (as in radixspline).
func (idx *Index[K]) Find(q K) int {
	if idx.n == 0 {
		return 0
	}
	pred := idx.Predict(q)
	r := search.Window(idx.keys, pred-idx.eps, pred+idx.eps, q)
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
