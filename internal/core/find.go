package core

import (
	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/search"
)

// Find returns lower-bound semantics over the indexed keys: the smallest
// index i with keys[i] >= q, or N if no such key exists. It implements the
// paper's Alg. 1: model prediction, Shift-Table correction, then bounded
// local search (linear under the threshold, binary above; exponential when
// no bound is available).
//
//shift:lockfree
func (t *Table[K]) Find(q K) int {
	if t.n == 0 {
		return 0
	}
	pred := t.model.Predict(q)
	k := t.partitionOf(pred)
	switch t.mode {
	case ModeRange:
		// lo[k] and lo[k+1] are adjacent in memory, so the correction
		// step costs one cache line (DESIGN.md §8).
		lo, hi := t.window(pred, k)
		r := search.Window(t.keys, lo, hi, q)
		if t.monotone {
			return r
		}
		// Non-monotone model (§3.8): the window is only a hint. Validate
		// the result globally and fall back to exponential search from the
		// corrected position when the true answer lies outside the window.
		if t.valid(r, q) {
			return r
		}
		return search.Exponential(t.keys, (lo+hi)/2, q)
	default: // ModeMidpoint
		start := pred + t.drift.get(k)
		return search.Exponential(t.keys, start, q)
	}
}

// valid reports whether r satisfies global lower-bound semantics for q.
func (t *Table[K]) valid(r int, q K) bool {
	if r < 0 || r > t.n {
		return false
	}
	if r > 0 && t.keys[r-1] >= q {
		return false
	}
	if r < t.n && t.keys[r] < q {
		return false
	}
	return true
}

// Window returns the local-search window the layer derives for q: the
// corrected start position and inclusive end (range mode), or a degenerate
// [start, start] window (midpoint mode). Exposed for analysis tools and the
// cost model; Find is the query path.
func (t *Table[K]) Window(q K) (lo, hi int) {
	if t.n == 0 {
		// The empty window at 0, the answer Find gives.
		if t.mode == ModeRange {
			return 0, -1
		}
		return 0, 0
	}
	pred := t.model.Predict(q)
	k := t.partitionOf(pred)
	if t.mode == ModeRange {
		return t.window(pred, k)
	}
	s := pred + t.drift.get(k)
	return s, s
}

// Lookup is a convenience wrapper pairing Find with an existence check:
// it reports the lower-bound position and whether the key at that position
// equals q.
func (t *Table[K]) Lookup(q K) (pos int, found bool) {
	pos = t.Find(q)
	return pos, pos < t.n && t.keys[pos] == q
}

// FindRange returns the half-open position range [first, last) of keys in
// the inclusive key range [a, b] — the paper's range query A ≤ key ≤ B,
// located via two lower-bound searches (§1: finding the first result, then
// the scan boundary).
func (t *Table[K]) FindRange(a, b K) (first, last int) {
	if b < a {
		return 0, 0
	}
	first = t.Find(a)
	if b == kv.MaxKey[K]() {
		return first, t.n
	}
	last = t.Find(b + 1)
	return first, last
}

// ModelFind performs a lookup with the model alone — no correction layer —
// using exponential search from the raw prediction. This is the paper's
// "model without Shift-Table" configuration (§3.9: the layer is optional and
// can be disabled with zero cost, falling back to exactly this path).
func ModelFind[K kv.Key](keys []K, model cdfmodel.Model[K], q K) int {
	if len(keys) == 0 {
		return 0
	}
	return search.Exponential(keys, model.Predict(q), q)
}
