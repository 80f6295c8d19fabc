package search

import (
	"math"

	"repro/internal/kv"
)

// This file adapts the package's on-the-fly lower-bound searches — which
// build no auxiliary structure at all — to the repository-wide index
// contract of internal/index (Find/Len/Name/SizeBytes plus optional
// capabilities). They are the "on-the-fly" columns of the paper's Table 2:
// binary search (BS), three-point interpolation (TIP), and classic
// interpolation search (IS), each serving queries straight off the shared
// sorted key slice.

// OnTheFly is the common state of the zero-build index views: a shared
// (not copied) sorted key slice.
type OnTheFly[K kv.Key] struct {
	keys []K
}

// Len returns the number of indexed keys.
func (o *OnTheFly[K]) Len() int { return len(o.keys) }

// SizeBytes is zero: on-the-fly methods keep no structure beyond the data.
func (o *OnTheFly[K]) SizeBytes() int { return 0 }

// BinarySearch is whole-array binary search (BS) as an index backend.
type BinarySearch[K kv.Key] struct{ OnTheFly[K] }

// NewBinarySearch returns a BS view over sorted keys.
func NewBinarySearch[K kv.Key](keys []K) *BinarySearch[K] {
	return &BinarySearch[K]{OnTheFly[K]{keys}}
}

// Find returns the lower-bound rank of q.
func (s *BinarySearch[K]) Find(q K) int { return Binary(s.keys, q) }

// Name identifies the backend in benchmark output.
func (s *BinarySearch[K]) Name() string { return "BS" }

// TraceFind replays Find through a touch callback for the cache simulator.
func (s *BinarySearch[K]) TraceFind(q K, touch Touch) int {
	return BinaryTraced(s.keys, q, touch)
}

// EstimateNs implements the index CostEstimator capability: binary search
// over the whole array is exactly what the L(s) micro-benchmark measures
// at window size N (§2.3).
func (s *BinarySearch[K]) EstimateNs(l func(s int) float64) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	return l(len(s.keys))
}

// TIPSearch is three-point interpolation search as an index backend.
type TIPSearch[K kv.Key] struct{ OnTheFly[K] }

// NewTIPSearch returns a TIP view over sorted keys.
func NewTIPSearch[K kv.Key](keys []K) *TIPSearch[K] {
	return &TIPSearch[K]{OnTheFly[K]{keys}}
}

// Find returns the lower-bound rank of q.
func (s *TIPSearch[K]) Find(q K) int { return TIP(s.keys, q) }

// Name identifies the backend in benchmark output.
func (s *TIPSearch[K]) Name() string { return "TIP" }

// InterpolationSearch is classic interpolation search (IS) as an index
// backend. Its applicability check (the paper's "takes too much time"
// N/A policy) lives with the registry, which calibrates Capped on a
// sample before selecting it.
type InterpolationSearch[K kv.Key] struct{ OnTheFly[K] }

// NewInterpolationSearch returns an IS view over sorted keys.
func NewInterpolationSearch[K kv.Key](keys []K) *InterpolationSearch[K] {
	return &InterpolationSearch[K]{OnTheFly[K]{keys}}
}

// Find returns the lower-bound rank of q.
func (s *InterpolationSearch[K]) Find(q K) int { return Interpolation(s.keys, q) }

// Name identifies the backend in benchmark output.
func (s *InterpolationSearch[K]) Name() string { return "IS" }

// Capped reports whether interpolation search answers q within maxIter
// probes; the registry's N/A calibration uses it.
func (s *InterpolationSearch[K]) Capped(q K, maxIter int) bool {
	_, ok := InterpolationCapped(s.keys, q, maxIter)
	return ok
}

// Log2N returns log2 of a count, the expected probe depth of binary
// search; shared by cost estimates in this package and the backends.
func Log2N(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log2(float64(n))
}
