// Package updatable implements the paper's future-work direction (§6): a
// Shift-Table index that supports inserts and deletes. The sketch in the
// paper — "capture the drifts in data distribution using update-tracking
// segments, and use Fenwick trees to estimate and correct the drifts" — is
// realised as:
//
//   - the read-optimised base: a sorted key array with a Shift-Table over
//     the paper's IM model, rebuilt only on compaction;
//   - deletions as tombstones whose position drift is tracked by a Fenwick
//     tree (a deleted key shifts every logical rank after it by one — the
//     prefix sum corrects that drift in O(log n)); bitmap and tree are
//     allocated by the first base-key delete, and a base without
//     tombstones skips the correction;
//   - insertions in a small sorted delta buffer, merged into the base when
//     it exceeds a threshold (compaction rebuilds model and layer and
//     drops the tombstones).
//
// Lookups stay lower-bound exact at all times: the logical rank of a query
// is its base rank, minus the deleted-before count from the Fenwick tree,
// plus its delta-buffer rank.
//
// The read state lives in View (view.go); Index adds the write side.
// Freeze hands out the current View as an immutable snapshot — the index
// copy-on-writes before its next mutation — which is what
// internal/concurrent publishes behind its atomic snapshot pointer.
package updatable

import (
	"fmt"

	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/fenwick"
	"repro/internal/kv"
)

// Config parameterises New.
type Config struct {
	// MaxDelta triggers compaction when the insert buffer reaches this
	// size. 0 defaults to max(1024, N/64).
	MaxDelta int
	// Layer configures the Shift-Table over the base (§3 defaults apply).
	Layer core.Config
}

// Index is an updatable Shift-Table index over integer keys. It is not
// goroutine-safe; internal/concurrent wraps it for concurrent serving.
type Index[K kv.Key] struct {
	cfg      Config
	maxDelta int

	v      *View[K]
	frozen bool // v escaped via Freeze: copy-on-write before mutating

	rebuilds int
}

// New builds the index over sorted initial keys (which may be empty).
func New[K kv.Key](keys []K, cfg Config) (*Index[K], error) {
	return NewFrom(keys, cfg, nil)
}

// NewFrom is New seeded with a predecessor base table: the build draws its
// arena from prev's pool and the new base adopts prev's batch-scratch pool,
// so a rebuild chain (internal/concurrent's compactor rebuilds off to the
// side and passes the sealed snapshot's table here) allocates no fresh
// scratch in steady state. A nil prev is exactly New.
func NewFrom[K kv.Key](keys []K, cfg Config, prev *core.Table[K]) (*Index[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("updatable: keys are not sorted")
	}
	if cfg.MaxDelta < 0 {
		return nil, fmt.Errorf("updatable: negative MaxDelta %d", cfg.MaxDelta)
	}
	ix := &Index[K]{cfg: cfg}
	if err := ix.setBaseFrom(append([]K(nil), keys...), prev); err != nil {
		return nil, err
	}
	return ix, nil
}

// setBase installs a new base array and rebuilds model and layer, carrying
// the current base table's pools over.
func (ix *Index[K]) setBase(keys []K) error {
	var prev *core.Table[K]
	if ix.v != nil {
		prev = ix.v.table
	}
	return ix.setBaseFrom(keys, prev)
}

// setBaseFrom rebuilds over keys through the parallel build pipeline
// (DESIGN.md §8), reusing prev's build arena and batch scratches when a
// predecessor exists. The new view holds no tombstone state.
func (ix *Index[K]) setBaseFrom(keys []K, prev *core.Table[K]) error {
	model := cdfmodel.NewInterpolation(keys)
	table, err := prev.BuildNext(keys, model, ix.cfg.Layer, 0)
	if err != nil {
		return err
	}
	ix.v = &View[K]{base: keys, table: table}
	ix.frozen = false
	ix.maxDelta = resolveMaxDelta(ix.cfg.MaxDelta, len(keys))
	return nil
}

// Config returns the configuration the index was built with.
func (ix *Index[K]) Config() Config { return ix.cfg }

// View returns the current read-only view. It stays coherent only until
// the next Insert/Delete/Compact; use Freeze for a snapshot that survives
// later writes.
func (ix *Index[K]) View() *View[K] { return ix.v }

// Freeze returns the current view as an immutable snapshot: the snapshot
// shares the base table, Fenwick tree and delta buffer with the index
// without copying, and the index clones those mutable parts before its
// next write (an O(N) copy, paid once per freeze, not per write). The
// returned view is safe for concurrent readers for as long as they hold it.
func (ix *Index[K]) Freeze() *View[K] {
	ix.frozen = true
	return ix.v
}

// mutable returns the view with ix allowed to mutate it, detaching from a
// frozen snapshot first if one escaped.
func (ix *Index[K]) mutable() *View[K] {
	if ix.frozen {
		ix.v = ix.v.clone()
		ix.frozen = false
	}
	return ix.v
}

// Len returns the number of live keys.
func (ix *Index[K]) Len() int { return ix.v.Len() }

// Rebuilds returns how many compactions have run.
func (ix *Index[K]) Rebuilds() int { return ix.rebuilds }

// Name identifies the backend in benchmark output (index.Index contract).
func (ix *Index[K]) Name() string { return "updatable(" + ix.v.table.Name() + ")" }

// SizeBytes reports the auxiliary footprint beyond the key data
// (index.Index contract). See View.SizeBytes.
func (ix *Index[K]) SizeBytes() int { return ix.v.SizeBytes() }

// DeltaLen returns the current insert-buffer size (observability).
func (ix *Index[K]) DeltaLen() int { return ix.v.DeltaLen() }

// Find returns the logical lower-bound rank of q among live keys. See
// View.Find.
func (ix *Index[K]) Find(q K) int { return ix.v.Find(q) }

// Lookup reports whether q is a live key and its logical rank. See
// View.Lookup.
func (ix *Index[K]) Lookup(q K) (rank int, found bool) { return ix.v.Lookup(q) }

// FindBatch answers Find for every query in qs. See View.FindBatch.
func (ix *Index[K]) FindBatch(qs []K, out []int) []int { return ix.v.FindBatch(qs, out) }

// LookupBatch answers Lookup for every query in qs. See View.LookupBatch.
func (ix *Index[K]) LookupBatch(qs []K, ranks []int, found []bool) ([]int, []bool) {
	return ix.v.LookupBatch(qs, ranks, found)
}

// Scan calls fn for every live key in [a, b] in sorted order. See
// View.Scan.
func (ix *Index[K]) Scan(a, b K, fn func(k K) bool) { ix.v.Scan(a, b, fn) }

// Insert adds k (duplicates allowed). Amortised O(MaxDelta) for the buffer
// insertion plus a periodic O(N) compaction.
func (ix *Index[K]) Insert(k K) error {
	v := ix.mutable()
	i := kv.UpperBound(v.delta, k)
	v.delta = append(v.delta, k)
	copy(v.delta[i+1:], v.delta[i:])
	v.delta[i] = k
	if len(v.delta) >= ix.maxDelta {
		return ix.Compact()
	}
	return nil
}

// Delete removes one live occurrence of k, reporting whether one existed.
// Delta occurrences are removed first (cheap); base occurrences become
// tombstones tracked by the Fenwick tree. The hit is located on the
// current view before detaching from a frozen snapshot, so a miss never
// pays the copy-on-write clone; positions carry over because the clone is
// content-identical. The first base tombstone allocates the bitmap and
// tree on the detached view, never on a frozen one.
func (ix *Index[K]) Delete(k K) bool {
	v := ix.v
	if d := kv.LowerBound(v.delta, k); d < len(v.delta) && v.delta[d] == k {
		v = ix.mutable()
		v.delta = append(v.delta[:d], v.delta[d+1:]...)
		return true
	}
	for p := v.table.Find(k); p < len(v.base) && v.base[p] == k; p++ {
		if !v.isDead(p) {
			v = ix.mutable()
			if v.deadCount == 0 {
				v.dead = make([]bool, len(v.base))
				v.delTree = fenwick.FromBools(v.dead)
			}
			v.dead[p] = true
			v.delTree.Add(p, 1)
			v.deadCount++
			return true
		}
	}
	return false
}

// Compact merges the delta buffer and drops tombstones, rebuilding the
// model and Shift-Table over the merged base; the result holds no
// tombstone state.
func (ix *Index[K]) Compact() error {
	v := ix.v // read-only pass; setBase installs a fresh view
	merged := make([]K, 0, v.Len())
	bp, dp := 0, 0
	for bp < len(v.base) || dp < len(v.delta) {
		for bp < len(v.base) && v.isDead(bp) {
			bp++
		}
		switch {
		case bp >= len(v.base):
			merged = append(merged, v.delta[dp:]...)
			dp = len(v.delta)
		case dp >= len(v.delta):
			merged = append(merged, v.base[bp])
			bp++
		case v.base[bp] <= v.delta[dp]:
			merged = append(merged, v.base[bp])
			bp++
		default:
			merged = append(merged, v.delta[dp])
			dp++
		}
	}
	ix.rebuilds++
	return ix.setBase(merged)
}

// Stats summarises the index composition (observability for the example
// and tests).
type Stats struct {
	Live       int
	BaseLen    int
	Tombstones int
	DeltaLen   int
	Rebuilds   int
	LayerBytes int
}

// Stats returns the current composition.
func (ix *Index[K]) Stats() Stats {
	return Stats{
		Live:       ix.v.Len(),
		BaseLen:    len(ix.v.base),
		Tombstones: ix.v.deadCount,
		DeltaLen:   ix.v.DeltaLen(),
		Rebuilds:   ix.rebuilds,
		LayerBytes: ix.v.table.SizeBytes(),
	}
}
