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
//   - ModeRange ("R"): each partition stores the minimum drift Δk of §3.
//     Under a monotone model the window length Ck follows from Δk+1, so
//     the layer is M+1 lower bounds, and a lookup reads two adjacent
//     entries to get a guaranteed range for a bounded local search
//     (binary or linear, Alg. 1).
//   - ModeMidpoint ("S"): each partition stores a single midpoint shift Δ̄
//     (Eq. 7) — one entry per partition, no guaranteed bounds, so local
//     search is exponential (§3.4).
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
	// ModeRange stores M+1 lower bounds Δk, each window running to the
	// next partition's: guaranteed windows, bounded local search (the
	// paper's "R" configurations).
	ModeRange Mode = iota
	// ModeMidpoint stores single midpoint shifts Δ̄: no guaranteed bounds,
	// local search is unbounded exponential (the paper's "S"
	// configurations).
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
	// Mode selects range bounds (R) or midpoint shifts (S). Default R.
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

	// drift holds the packed drift entries (drift.go). Range mode stores
	// M+1 lower bounds: the window for a query with prediction p in
	// partition k is [p+lo[k], p+lo[k+1]+span(k)] (Eq. 5–6: Δ=lo, and the
	// next partition's first key ends this one's window), which with M=N
	// (span 0) degenerates to the paper's <Δk, Ck>. Midpoint mode stores
	// the rounded mean drift Δ̄k (Eq. 7). Partition cardinalities are not
	// stored: the analysis readers count them with one model sweep
	// (stats.go).
	drift    driftArray
	monotone bool // windows are guaranteed (§3.8): a monotone model whose windows the build checked

	// scratch pools *batchScratch[K] instances for the batched query
	// engine (batch.go); concurrent batches each draw their own. It is a
	// pointer so a rebuilt table can adopt its predecessor's warmed pool
	// (BuildNext): snapshot generations under internal/concurrent then
	// share one pool instead of re-allocating scratches after every
	// compaction.
	scratch *sync.Pool

	// region, when non-nil, is the mapped snapshot region whose pages
	// back keys and the drift array (mapped.go in this package).
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

// pmin and pmax bound the predictions that map to partition k,
// partitionOf(p) == k ⟺ k·n ≤ p·m < (k+1)·n: the feasible positions a
// query landing in an empty partition can have been predicted at.
// Partition M, one past the layer, is predicted only at N: the range-mode
// entry M that closes the last partition is written as if it were an
// empty partition whose answer is N.
func (t *Table[K]) pmin(k int) int64 {
	if t.m == t.n {
		return int64(k)
	}
	return min(ceilDiv(int64(k)*int64(t.n), int64(t.m)), t.pmax(k)) // pmax for a partition no prediction maps to
}

func (t *Table[K]) pmax(k int) int64 {
	if t.m == t.n {
		return int64(k)
	}
	return min(ceilDiv(int64(k+1)*int64(t.n), int64(t.m))-1, int64(t.n)) // only partition M reaches past N−1
}

// aim is the middle of partition k's feasible predictions: an empty
// midpoint-mode partition's shift aims from it at the next run.
func (t *Table[K]) aim(k int) int64 { return (t.pmin(k) + t.pmax(k)) / 2 }

// span is the range-mode term that turns partition k+1's lower bound into
// partition k's upper bound: pmax(k+1) − pmin(k) − 1. The two partitions'
// keys are adjacent runs under a monotone model, so the last slot of k's
// window from every feasible prediction of k is the slot before k+1's
// first key from every feasible prediction of k+1. It is 0 at M = N.
func (t *Table[K]) span(k int) int {
	if t.m == t.n {
		return 0
	}
	if t.m > t.n {
		return int(t.pmax(k+1) - t.pmin(k) - 1)
	}
	return t.spans().of(k)
}

// spanTerm is span's closed form below M = N, where pmin's cap at pmax
// never binds. With c = ⌈kN/M⌉ and s = cM − kN ∈ [0, M),
// pmax(k+1) = ⌈(k+2)N/M⌉ − 1 = c + ⌈(2N − s)/M⌉ − 1, so
// span(k) = ⌊2N/M⌋ − 2, plus 1 when 2N mod M > s. Partition M−1's pmax
// and partition M's pmin are capped at N; min(·, N − 1 − c) keeps those
// caps. The quotients of 2N by M are computed once per table, so a lane
// pays one division for c and s.
type spanTerm struct {
	n, m   int64
	q2, r2 int64 // ⌊2N/M⌋ and 2N mod M
}

func (t *Table[K]) spans() spanTerm {
	n, m := int64(t.n), int64(t.m)
	return spanTerm{n: n, m: m, q2: 2 * n / m, r2: 2 * n % m}
}

func (st spanTerm) of(k int) int {
	kn := int64(k) * st.n
	c, r := kn/st.m, kn%st.m
	s := int64(0)
	if r > 0 {
		c++
		s = st.m - r
	}
	sp := st.q2 - 2
	if st.r2 > s {
		sp++
	}
	return int(min(sp, st.n-1-c))
}

// window returns the range-mode local-search window [lo, hi] of a query
// with prediction pred in partition k.
func (t *Table[K]) window(pred, k int) (lo, hi int) {
	dlo, dnext := t.drift.bounds(k)
	return pred + dlo, pred + dnext + t.span(k)
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

// SizeBytes reports the footprint of the correction layer itself (the
// paper's Fig. 8 index-size axis counts the mapping array; the model size is
// reported separately by the model): every byte the layer holds, M+1
// packed lower bounds in range mode and M packed shifts in midpoint mode.
func (t *Table[K]) SizeBytes() int { return t.drift.sizeBytes() }

// EntryBits reports the per-entry width selected for the drift array
// (§3.9: "if the error is smaller than 2^16/2, then a 16-bit integer can be
// used"): the narrowest width that holds every stored entry.
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
