// Package core implements the paper's contribution: the Shift-Table layer
// (§3), an algorithmic correction layer that sits on top of a learned CDF
// model and eliminates its signed error (drift) at the cost of at most one
// extra memory lookup.
//
// A learned model predicts position [N·Fθ(x)] for a query x; the true
// position is N·F(x). The Shift-Table partitions keys by the model's output
// and stores, per partition, how far ahead the actual records are. Two modes
// are provided, matching the paper's evaluation (§3.4, Fig. 9):
//
//   - ModeRange ("R"): each partition stores the <Δ, C> pair of §3 — the
//     minimum drift and the window length — giving a guaranteed range for a
//     bounded local search (binary or linear, Alg. 1).
//   - ModeMidpoint ("S"): each partition stores a single midpoint shift Δ̄
//     (Eq. 7) — half the footprint, no guaranteed bounds, so local search
//     is exponential (§3.4).
//
// The layer size M defaults to N (one partition per key, the paper's
// recommended default, §3.9) and can be reduced (M = N/X, the paper's "S-X"
// configurations) to trade memory for accuracy (§3.4).
package core

import (
	"fmt"
	"sync"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/mapped"
)

// Mode selects the Shift-Table flavour.
type Mode int

const (
	// ModeRange stores <Δ, C> pairs: guaranteed windows, bounded local
	// search (the paper's "R" configurations).
	ModeRange Mode = iota
	// ModeMidpoint stores single midpoint shifts Δ̄: half the memory, local
	// search is unbounded exponential (the paper's "S" configurations).
	ModeMidpoint
)

func (m Mode) String() string {
	switch m {
	case ModeRange:
		return "R"
	case ModeMidpoint:
		return "S"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls how a Shift-Table is built.
type Config struct {
	// Mode selects range pairs (R) or midpoint shifts (S). Default R.
	Mode Mode
	// M is the number of partitions. 0 means N, the paper's default
	// (§3.9): "using a mapping layer that has the same number of entries
	// as the keys ensures that the layer can exhibit its ultimate effect".
	M int
	// SampleStride, when > 1 in midpoint mode, builds the layer from every
	// SampleStride-th key instead of all keys (§3.4: "it is possible to
	// construct the map using a sample of the indexed keys, which comes at
	// the cost of accuracy"). Ignored in range mode, which needs exact
	// bounds.
	SampleStride int
}

// Table is a built Shift-Table layer over a sorted key slice and a learned
// CDF model. It is immutable after Build and safe for concurrent readers.
type Table[K kv.Key] struct {
	keys  []K
	model cdfmodel.Model[K]
	mode  Mode
	n     int
	m     int

	// drift holds the packed per-partition drift entries (drift.go). Range
	// mode stores the fused <lo, hi> bounds, interleaved at one packed
	// width so a lookup's correction step touches a single cache line
	// (DESIGN.md §8); the window for a query with prediction p in
	// partition k is [p+lo[k], p+hi[k]] (Eq. 5–6: Δ=lo, C=hi−lo), which
	// with M=N degenerates to the paper's <Δk, Ck>. Midpoint mode stores
	// the rounded mean drift Δ̄k (Eq. 7).
	drift driftArray
	// loBits/hiBits (range mode only) are the independent narrowest widths
	// of the two halves (the paper's §3.9 width discussion treats lo and
	// hi as separate arrays); the layer blob's widths word records them.
	// They share an 8-byte slot with monotone (fieldalignment: grouping the
	// three 1-byte fields keeps Table at 224 bytes instead of 232).
	loBits, hiBits uint8
	monotone       bool // model guarantees windows (§3.8)

	// count[k] is the number of keys mapped to partition k (the paper's
	// Ck cardinality), kept for the error estimate (Eq. 8) and cost model
	// (Eq. 9–10). Stored at build time; not touched during lookups.
	count []int32

	// scratch pools *batchScratch[K] instances for the batched query
	// engine (batch.go); concurrent batches each draw their own. It is a
	// pointer so a rebuilt table can adopt its predecessor's warmed pool
	// (AdoptScratch): snapshot generations under internal/concurrent then
	// share one pool instead of re-allocating scratches after every
	// compaction.
	scratch *sync.Pool

	// buildPool pools *buildArena instances (build.go) the same way:
	// BuildNext draws the rebuild's transient arrays (prediction arena and
	// per-partition accumulators) from the predecessor's pool, so
	// steady-state compaction reallocates neither query scratches nor
	// build scratch.
	buildPool *sync.Pool

	// region, when non-nil, is the mapped snapshot region whose pages
	// back keys, drift arrays, and counts (mapped.go in this package).
	// The table holds one reference, released by a runtime cleanup when
	// the table becomes unreachable — readers reach the bytes only
	// through a table they hold, so reachability implies the mapping is
	// live and a snapshot swap can never munmap under an in-flight query.
	region *mapped.Region
}

// partitionOf maps a model prediction p ∈ [0, N) to its partition
// [M·Fθ(x)] ∈ [0, M). The model interface exposes quantised predictions
// [N·Fθ(x)] rather than Fθ itself, so the partition is derived as
// [p·M/N]; build and query use the same mapping, which is all correctness
// requires.
func (t *Table[K]) partitionOf(pred int) int {
	if t.m == t.n {
		return pred
	}
	return int(int64(pred) * int64(t.m) / int64(t.n))
}

// predRange returns the inclusive range of predictions that map to
// partition k: the feasible positions a query landing in an empty partition
// can have been predicted at.
func (t *Table[K]) predRange(k int) (pmin, pmax int64) {
	if t.m == t.n {
		return int64(k), int64(k)
	}
	// partitionOf(p) == k  ⟺  k·n ≤ p·m < (k+1)·n.
	pmin = ceilDiv(int64(k)*int64(t.n), int64(t.m))
	pmax = ceilDiv(int64(k+1)*int64(t.n), int64(t.m)) - 1
	if pmax > int64(t.n-1) {
		pmax = int64(t.n - 1)
	}
	if pmin > pmax {
		pmin = pmax // degenerate partition no prediction maps to
	}
	return pmin, pmax
}

// Len returns the number of indexed keys.
func (t *Table[K]) Len() int { return t.n }

// Name identifies the backend in benchmark output: the host model's name
// with the correction layer appended, e.g. "IM+ST".
func (t *Table[K]) Name() string { return t.model.Name() + "+ST" }

// M returns the number of layer partitions.
func (t *Table[K]) M() int { return t.m }

// Mode returns the layer flavour.
func (t *Table[K]) Mode() Mode { return t.mode }

// Model returns the underlying CDF model.
func (t *Table[K]) Model() cdfmodel.Model[K] { return t.model }

// ModelFingerprint returns the fingerprint of the table's CDF model — the
// same value the snapshot container embeds to refuse layer/model
// mismatches. Replication records it in the manifest so a replica can
// verify a fetched artifact carries the model family the primary
// published, before anything is served from it.
func (t *Table[K]) ModelFingerprint() uint64 { return modelFingerprint(t.model) }

// Keys returns the indexed keys (shared, not copied).
func (t *Table[K]) Keys() []K { return t.keys }

// AdoptScratch makes t draw its batch scratches and build arenas from
// prev's pools instead of its own, so a table rebuilt after a compaction
// keeps the warmed-up instances of its predecessor (neither carries
// table-specific state: every batch-scratch slot is written before it is
// read within a chunk, and build arenas are fully re-initialised per
// build). Call before t is visible to concurrent readers; a nil or
// zero-value prev is a no-op. BuildNext calls this itself.
func (t *Table[K]) AdoptScratch(prev *Table[K]) {
	if prev == nil {
		return
	}
	if prev.scratch != nil {
		t.scratch = prev.scratch
	}
	if prev.buildPool != nil {
		t.buildPool = prev.buildPool
	}
}

// SizeBytes reports the footprint of the correction layer itself (the
// paper's Fig. 8 index-size axis counts the mapping array; the model size is
// reported separately by the model). Range mode reports the fused
// interleaved array — the layout lookups actually touch — which equals the
// split footprint whenever lo and hi pack to the same width (the common
// case) and rounds the narrower half up to the common width otherwise.
func (t *Table[K]) SizeBytes() int { return t.drift.sizeBytes() }

// EntryBits reports the per-entry width selected for the drift array
// (§3.9: "if the error is smaller than 2^16/2, then a 16-bit integer can be
// used"). Range mode reports the fused pair width, max(lo, hi).
func (t *Table[K]) EntryBits() int { return t.drift.entryBits() }

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

func roundHalfAway(v float64) int64 {
	if v >= 0 {
		return int64(v + 0.5)
	}
	return -int64(-v + 0.5)
}
