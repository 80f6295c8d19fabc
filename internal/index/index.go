// Package index defines the repository-wide index abstraction: the one
// contract every backend — the Shift-Table itself (internal/core) and the
// paper's Table 2 competitor set — implements natively, plus the optional
// capability interfaces the harness and the hybrid router probe for. The
// contract has no range method: a range query [a, b] is two lower bounds,
// Find(a) and Find(b+1), as in the paper (§1).
//
// The paper's central claim is that the Shift-Table is a *layer* that
// composes with any CDF model, and that its §3.7 cost model predicts when
// the layer pays off. This package is where that claim becomes an
// architecture: backends register declaratively (registry.go), the bench
// harness enumerates the registry instead of hand-wiring adapters, and
// internal/router uses the CostEstimator capability to pick the cheapest
// backend per key-space shard.
package index

import (
	"repro/internal/kv"
	"repro/internal/search"
)

// Index is the core contract: lower-bound lookups over a sorted key slice,
// with lengths, names, and footprints for the harness. Every backend in
// the repository implements it with methods on its own type — no adapter
// closures.
type Index[K kv.Key] interface {
	// Find returns the smallest rank i with keys[i] >= q, or Len() when
	// no such key exists (lower-bound semantics, validated against
	// kv.LowerBound by the conformance suite).
	Find(q K) int
	// Len is the number of indexed keys.
	Len() int
	// Name identifies the backend in benchmark output (the paper's
	// Table 2 column label where one exists).
	Name() string
	// SizeBytes is the index footprint excluding the key data itself.
	SizeBytes() int
}

// BatchFinder is the optional batched-lookup capability (DESIGN.md §5):
// results are bit-identical to per-query Find, only the schedule differs.
type BatchFinder[K kv.Key] interface {
	FindBatch(qs []K, out []int) []int
}

// Tracer is the optional instrumented twin: Find replayed through a touch
// callback for the cache simulator (internal/memsim).
type Tracer[K kv.Key] interface {
	TraceFind(q K, touch search.Touch) int
}

// CostEstimator is the optional §3.7 cost-model capability, generalised
// across backends: the expected per-lookup latency in nanoseconds under
// the machine's L(s) local-search latency curve (the §2.3
// micro-benchmark). Estimates are comparable across backends, which is
// all the router's argmin needs; absolute accuracy tracks the curve.
type CostEstimator interface {
	EstimateNs(l func(s int) float64) float64
}

// FindBatch answers a batch of lower-bound queries through ix, using its
// native BatchFinder pipeline when present and a scalar loop otherwise.
// Result i for qs[i] lands in out[i]; the returned slice is out when it
// has capacity, a fresh slice otherwise.
func FindBatch[K kv.Key](ix Index[K], qs []K, out []int) []int {
	if bf, ok := ix.(BatchFinder[K]); ok {
		return bf.FindBatch(qs, out)
	}
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = make([]int, len(qs))
	}
	for i, q := range qs {
		out[i] = ix.Find(q)
	}
	return out
}

// TraceFindFn returns the backend's instrumented lookup when it has one,
// nil otherwise; the miss-count harness skips backends without a twin.
func TraceFindFn[K kv.Key](ix Index[K]) func(q K, touch search.Touch) int {
	if tr, ok := ix.(Tracer[K]); ok {
		return tr.TraceFind
	}
	return nil
}
