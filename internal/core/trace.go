package core

import (
	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/search"
)

// TraceFind is the instrumented twin of Find: identical semantics, but it
// reports every memory access — the Shift-Table entry lookup and each key
// touched by the local search — through the touch callback. The memsim
// experiments feed these traces to the cache simulator to reproduce the
// paper's cache-miss measurements (Fig. 2b, Fig. 8). Model-parameter
// accesses are not traced here; the models are cache-resident by design
// (IM is two registers) and the caller accounts for larger models
// separately.
func (t *Table[K]) TraceFind(q K, touch search.Touch) int {
	if t.n == 0 {
		return 0
	}
	pred := t.model.Predict(q)
	k := t.partitionOf(pred)
	switch t.mode {
	case ModeRange:
		// One lookup into the mapping array (§3: "the correction can be
		// done using a single lookup into the array of pairs"): lo[k] and
		// lo[k+1] are adjacent, one touch of 2·width bytes, which crosses
		// a line boundary only when the pair straddles one.
		t.touchBounds(k, touch)
		lo, hi := t.window(pred, k)
		r := search.WindowTraced(t.keys, lo, hi, q, touch)
		if t.monotone {
			return r
		}
		if t.valid(r, q) {
			return r
		}
		return search.ExponentialTraced(t.keys, (lo+hi)/2, q, touch)
	default:
		t.touchEntry(k, touch)
		start := pred + t.drift.get(k)
		return search.ExponentialTraced(t.keys, start, q, touch)
	}
}

// touchEntry reports the address of midpoint drift entry k at its packed
// width.
func (t *Table[K]) touchEntry(k int, touch search.Touch) {
	d := &t.drift
	switch d.width {
	case 1:
		touch(kv.Addr(d.w8, k), 1)
	case 2:
		touch(kv.Addr(d.w16, k), 2)
	case 4:
		touch(kv.Addr(d.w32, k), 4)
	case 8:
		touch(kv.Addr(d.w64, k), 8)
	}
}

// touchBounds reports range-mode entries k and k+1 as one access of
// 2·width bytes (they are contiguous).
func (t *Table[K]) touchBounds(k int, touch search.Touch) {
	d := &t.drift
	switch d.width {
	case 1:
		touch(kv.Addr(d.w8, k), 2)
	case 2:
		touch(kv.Addr(d.w16, k), 4)
	case 4:
		touch(kv.Addr(d.w32, k), 8)
	case 8:
		touch(kv.Addr(d.w64, k), 16)
	}
}

// TraceModelFind is the instrumented twin of ModelFind (model-only lookup,
// no correction layer).
func TraceModelFind[K kv.Key](keys []K, model cdfmodel.Model[K], q K, touch search.Touch) int {
	if len(keys) == 0 {
		return 0
	}
	return search.ExponentialTraced(keys, model.Predict(q), q, touch)
}
