package updatable

import (
	"repro/internal/core"
	"repro/internal/kv"
)

// View is the read-only state of a base: the sorted keys and the
// Shift-Table over them. Nothing mutates a View after NewFrom or a loader
// returns it, so any number of readers may share it without copying;
// internal/concurrent publishes one in every snapshot, under its write
// generations. A position in the base is a rank: every key it holds is
// live.
type View[K kv.Key] struct {
	base  []K
	table *core.Table[K]
}

// Len returns the number of keys.
func (v *View[K]) Len() int { return len(v.base) }

// Keys returns the sorted base keys (shared, not copied; read-only).
func (v *View[K]) Keys() []K { return v.base }

// Table returns the base Shift-Table (shared, not copied). Exposed so a
// successor view built by a rebuild can adopt its pools (NewFrom).
func (v *View[K]) Table() *core.Table[K] { return v.table }

// ModelFingerprint returns the fingerprint of the base table's CDF model
// (core.Table.ModelFingerprint). Replication records it in the manifest
// and re-verifies it on the replica before a fetched state is served.
func (v *View[K]) ModelFingerprint() uint64 { return v.table.ModelFingerprint() }

// SizeBytes reports the view's auxiliary footprint beyond the key data:
// the correction layer and the host model.
func (v *View[K]) SizeBytes() int {
	return v.table.SizeBytes() + v.table.Model().SizeBytes()
}

// Find returns the lower-bound rank of q: the number of keys < q.
func (v *View[K]) Find(q K) int { return v.table.Find(q) }

// Count returns the number of occurrences of q (duplicates counted).
func (v *View[K]) Count(q K) int { return v.countAt(q, v.table.Find(q)) }

// countAt is Count given q's already-computed lower-bound position.
func (v *View[K]) countAt(q K, pos int) int {
	n := 0
	for p := pos; p < len(v.base) && v.base[p] == q; p++ {
		n++
	}
	return n
}

// LookupCount returns the rank of q and its multiplicity with a single
// base-table probe (the concurrent index's scalar read path is built on
// it).
func (v *View[K]) LookupCount(q K) (rank, count int) {
	rank = v.table.Find(q)
	return rank, v.countAt(q, rank)
}

// FindBatch answers Find for every query in qs through the staged
// core.Table.FindBatch pipeline, writing result i into out[i] and
// returning the result slice (out when it has capacity). Results are
// bit-identical to calling Find per query.
func (v *View[K]) FindBatch(qs []K, out []int) []int { return v.table.FindBatch(qs, out) }
