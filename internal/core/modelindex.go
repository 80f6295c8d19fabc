package core

import (
	"fmt"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/mapped"
	"repro/internal/search"
)

// ModelIndex serves lookups with a bare CDF model and exponential local
// search from the raw prediction — the paper's "model without Shift-Table"
// configuration (§3.9) as a first-class index backend. It is what a
// Shift-Table-corrected index degrades to when the layer is disabled, and
// the natural winner on distributions the model already fits (the §4.1
// advisor's "error below 10 records" case).
type ModelIndex[K kv.Key] struct {
	keys    []K
	model   cdfmodel.Model[K]
	meanErr float64 // mean |drift| over the indexed keys, for Eq. 10

	// region backs keys when the index was opened over a mapped snapshot
	// (mapped.go); nil for heap-built indexes. Same lifetime protocol as
	// Table.region.
	region *mapped.Region
}

// NewModelIndex builds the bare-model index over sorted keys. It measures
// the model's mean absolute error once (one pass) so the §3.7 cost
// estimate needs no further scans.
func NewModelIndex[K kv.Key](keys []K, model cdfmodel.Model[K]) (*ModelIndex[K], error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("core: keys are not sorted")
	}
	mean, _ := ModelError(keys, model)
	return &ModelIndex[K]{keys: keys, model: model, meanErr: mean}, nil
}

// Find returns the lower-bound rank of q.
func (ix *ModelIndex[K]) Find(q K) int { return ModelFind(ix.keys, ix.model, q) }

// TraceFind replays Find through a touch callback for the cache simulator.
func (ix *ModelIndex[K]) TraceFind(q K, touch search.Touch) int {
	return TraceModelFind(ix.keys, ix.model, q, touch)
}

// Len returns the number of indexed keys.
func (ix *ModelIndex[K]) Len() int { return len(ix.keys) }

// Keys returns the indexed keys (read-only).
func (ix *ModelIndex[K]) Keys() []K { return ix.keys }

// Name identifies the backend by its model family ("IM" for the paper's
// interpolation model).
func (ix *ModelIndex[K]) Name() string { return ix.model.Name() }

// SizeBytes is the model parameter footprint; the bare index keeps nothing
// else.
func (ix *ModelIndex[K]) SizeBytes() int { return ix.model.SizeBytes() }

// Model returns the underlying CDF model.
func (ix *ModelIndex[K]) Model() cdfmodel.Model[K] { return ix.model }

// MeanAbsError returns the model's mean absolute drift over the indexed
// keys, measured at build time.
func (ix *ModelIndex[K]) MeanAbsError() float64 { return ix.meanErr }

// EstimateNs implements the index CostEstimator capability with the Eq. 10
// shape: model execution plus a local search across the mean model error
// (the layer-less arm of the §3.7 comparison).
func (ix *ModelIndex[K]) EstimateNs(l LatencyFn) float64 {
	err := int(ix.meanErr)
	if err < 1 {
		err = 1
	}
	return estimateModelNs + l(err)
}
