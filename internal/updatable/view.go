package updatable

import (
	"repro/internal/core"
	"repro/internal/fenwick"
	"repro/internal/kv"
)

// View is the read-only state of an updatable index: the base Shift-Table,
// the tombstone bitmap with its Fenwick prefix sums, and the sorted insert
// buffer. All read paths (Find, Lookup, Scan, the batch entry points) are
// methods on View; Index embeds one and mutates it in place.
//
// Tombstone state is lazy: dead and delTree stay nil until the first base
// slot is tombstoned (deadCount > 0 ⇔ both are allocated), so a view that
// has never lost a base key — every view internal/concurrent builds, since
// its deletes live in write generations — pays no Fenwick walk per lookup
// and no tombstone bytes per key.
//
// A View obtained from Index.Freeze is immutable and safe for concurrent
// readers: it shares the base table, Fenwick tree and delta slice with the
// index without copying, and the index copy-on-writes those parts before
// its next mutation instead of touching the frozen state.
// internal/concurrent builds its lock-free snapshots on exactly this —
// every published snapshot holds a frozen View plus immutable write
// generations layered on top.
type View[K kv.Key] struct {
	base      []K // sorted, may contain tombstoned slots
	table     *core.Table[K]
	dead      []bool        // tombstones, parallel to base; nil while deadCount == 0
	delTree   *fenwick.Tree // prefix counts of tombstones; nil while deadCount == 0
	deadCount int

	delta []K // sorted insert buffer
}

// Len returns the number of live keys.
func (v *View[K]) Len() int {
	return len(v.base) - v.deadCount + len(v.delta)
}

// DeltaLen returns the insert-buffer size (observability).
func (v *View[K]) DeltaLen() int { return len(v.delta) }

// Tombstones returns the number of tombstoned base slots (observability).
func (v *View[K]) Tombstones() int { return v.deadCount }

// Table returns the base Shift-Table (shared, not copied). Exposed so a
// successor view built by a rebuild can adopt its batch scratch pool
// (core.Table.AdoptScratch).
func (v *View[K]) Table() *core.Table[K] { return v.table }

// ModelFingerprint returns the fingerprint of the base table's CDF model
// (core.Table.ModelFingerprint). Replication records it in the manifest
// and re-verifies it on the replica before a fetched state is served.
func (v *View[K]) ModelFingerprint() uint64 { return v.table.ModelFingerprint() }

// SizeBytes reports the view's auxiliary footprint beyond the key data:
// correction layer, host model, the insert buffer, and the tombstone bitmap
// and Fenwick tree once a tombstone exists.
func (v *View[K]) SizeBytes() int {
	n := v.table.SizeBytes() + v.table.Model().SizeBytes() + len(v.delta)*kv.Width[K]()
	if v.deadCount > 0 {
		n += len(v.dead) + 8*(v.delTree.Len()+1)
	}
	return n
}

// isDead reports whether base slot p is tombstoned.
func (v *View[K]) isDead(p int) bool { return v.deadCount > 0 && v.dead[p] }

// Find returns the logical lower-bound rank of q among live keys: the
// number of live keys < q, which is the index the first key >= q would
// have in the live sorted multiset.
func (v *View[K]) Find(q K) int {
	basePos := v.table.Find(q)
	deltaPos := kv.LowerBound(v.delta, q)
	return v.rankAt(basePos, deltaPos)
}

// rankAt combines a base-table position and a delta-buffer position into
// the logical rank: the base rank minus the deleted-before count from the
// Fenwick tree, plus the delta rank.
func (v *View[K]) rankAt(basePos, deltaPos int) int {
	if v.deadCount == 0 {
		return basePos + deltaPos
	}
	return basePos - int(v.delTree.PrefixSum(basePos)) + deltaPos
}

// Lookup reports whether q is a live key and its logical rank. The base
// table and delta buffer are each probed once; rank and existence both
// derive from those two positions.
func (v *View[K]) Lookup(q K) (rank int, found bool) {
	basePos := v.table.Find(q)
	deltaPos := kv.LowerBound(v.delta, q)
	rank = v.rankAt(basePos, deltaPos)
	return rank, v.liveAt(q, basePos, deltaPos)
}

// liveAt reports whether q has a live occurrence, given its base and delta
// lower-bound positions.
func (v *View[K]) liveAt(q K, basePos, deltaPos int) bool {
	// Any live duplicate of q in the base?
	for p := basePos; p < len(v.base) && v.base[p] == q; p++ {
		if !v.isDead(p) {
			return true
		}
	}
	// Or in the delta buffer?
	return deltaPos < len(v.delta) && v.delta[deltaPos] == q
}

// Count returns the number of live occurrences of q (duplicates counted).
// internal/concurrent uses it to keep exact multiset semantics when write
// generations layer tombstones over a frozen view.
func (v *View[K]) Count(q K) int {
	return v.countAt(q, v.table.Find(q), kv.LowerBound(v.delta, q))
}

// countAt is Count given the already-computed base and delta lower-bound
// positions.
func (v *View[K]) countAt(q K, basePos, deltaPos int) int {
	n := 0
	for p := basePos; p < len(v.base) && v.base[p] == q; p++ {
		if !v.isDead(p) {
			n++
		}
	}
	for d := deltaPos; d < len(v.delta) && v.delta[d] == q; d++ {
		n++
	}
	return n
}

// LookupCount returns the logical rank of q and its live multiplicity with
// a single base-table probe (Lookup and Count fused; the concurrent
// wrapper's read path is built on it).
func (v *View[K]) LookupCount(q K) (rank, count int) {
	basePos := v.table.Find(q)
	deltaPos := kv.LowerBound(v.delta, q)
	return v.rankAt(basePos, deltaPos), v.countAt(q, basePos, deltaPos)
}

// LookupCountBatch answers LookupCount for every query in qs through the
// staged base-table batch pipeline: one base probe per lane, then rank and
// multiplicity derive from that position. Reuses the supplied slices when
// they have capacity.
func (v *View[K]) LookupCountBatch(qs []K, ranks, counts []int) ([]int, []int) {
	ranks = v.table.FindBatch(qs, ranks)
	if cap(counts) >= len(qs) {
		counts = counts[:len(qs)]
	} else {
		counts = make([]int, len(qs))
	}
	for i, q := range qs {
		basePos := ranks[i]
		deltaPos := kv.LowerBound(v.delta, q)
		ranks[i] = v.rankAt(basePos, deltaPos)
		counts[i] = v.countAt(q, basePos, deltaPos)
	}
	return ranks, counts
}

// FindBatch answers Find for every query in qs, writing result i into
// out[i] and returning the result slice (out when it has capacity). The
// base-table probes run through the staged core.Table.FindBatch pipeline;
// the Fenwick corrections and delta-buffer probes are then applied per
// lane. Results are bit-identical to calling Find per query.
func (v *View[K]) FindBatch(qs []K, out []int) []int {
	out = v.table.FindBatch(qs, out)
	for i, q := range qs {
		out[i] = v.rankAt(out[i], kv.LowerBound(v.delta, q))
	}
	return out
}

// LookupBatch answers Lookup for every query in qs: ranks[i] is the
// logical rank of qs[i] and found[i] reports whether it is live. Like
// FindBatch it reuses the supplied slices when they have capacity.
func (v *View[K]) LookupBatch(qs []K, ranks []int, found []bool) ([]int, []bool) {
	ranks = v.table.FindBatch(qs, ranks)
	if cap(found) >= len(qs) {
		found = found[:len(qs)]
	} else {
		found = make([]bool, len(qs))
	}
	for i, q := range qs {
		basePos := ranks[i]
		deltaPos := kv.LowerBound(v.delta, q)
		ranks[i] = v.rankAt(basePos, deltaPos)
		found[i] = v.liveAt(q, basePos, deltaPos)
	}
	return ranks, found
}

// Scan calls fn for every live key in [a, b] in sorted order; fn returning
// false stops the scan. It merges the live base run with the delta run.
func (v *View[K]) Scan(a, b K, fn func(k K) bool) {
	if b < a {
		return
	}
	bp := v.table.Find(a)
	dp := kv.LowerBound(v.delta, a)
	for {
		// Skip tombstones.
		for bp < len(v.base) && v.isDead(bp) {
			bp++
		}
		baseOK := bp < len(v.base) && v.base[bp] <= b
		deltaOK := dp < len(v.delta) && v.delta[dp] <= b
		switch {
		case !baseOK && !deltaOK:
			return
		case baseOK && (!deltaOK || v.base[bp] <= v.delta[dp]):
			if !fn(v.base[bp]) {
				return
			}
			bp++
		default:
			if !fn(v.delta[dp]) {
				return
			}
			dp++
		}
	}
}

// clone returns a view sharing the immutable base array and table but with
// independent copies of the parts Index mutates in place (tombstone bitmap,
// Fenwick tree, delta buffer). Index calls it to detach from a frozen view
// before the next write. Absent tombstone state stays absent.
func (v *View[K]) clone() *View[K] {
	c := &View[K]{
		base:      v.base,
		table:     v.table,
		deadCount: v.deadCount,
		delta:     append([]K(nil), v.delta...),
	}
	if v.deadCount > 0 {
		c.dead = append([]bool(nil), v.dead...)
		c.delTree = v.delTree.Clone()
	}
	return c
}
