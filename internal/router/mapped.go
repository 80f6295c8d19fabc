package router

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/mapped"
	"repro/internal/snapshot"
)

// This file is the router's one load path (DESIGN.md §12). The loader
// views the shared key section in place and restores each shard over its
// slice of that view: shift-table shards view their layer sections too,
// bare-model shards rebuild their (parameter-free) models, and
// rebuild-mode shards build on the heap as before — but even they index
// mapped key pages, so the big allocation (the keys) never happens.

// mapSnapshot restores a router over an opened container: keys, plan,
// then per shard either the keyless sections restored over the shard's
// slice of the keys, or a rebuild of the recorded backend. The O(n)
// invariant (keys sorted) is checked exactly when the container is
// verified — see the trust note in core's mapped loaders; the O(1)
// per-shard plan cross-checks (bound matches first key, no duplicate-run
// cuts, lengths consistent) always run.
func mapSnapshot[K kv.Key](m *snapshot.Mapped) (*Router[K], error) {
	if m.Kind() != SnapshotKind {
		return nil, fmt.Errorf("router: container holds %q, want %q", m.Kind(), SnapshotKind)
	}
	m.Rewind()
	ks, err := m.Expect(secRouterKeys)
	if err != nil {
		return nil, err
	}
	keys, err := snapshot.MapKeySection[K](ks)
	if err != nil {
		return nil, err
	}
	if m.Verified() && !kv.IsSorted(keys) {
		return nil, fmt.Errorf("router: snapshot keys are not sorted")
	}
	ps, err := m.Expect(secRouterPlan)
	if err != nil {
		return nil, err
	}
	entries, err := decodePlan(ps.Data, len(keys))
	if err != nil {
		return nil, err
	}
	r := &Router[K]{keys: keys, n: len(keys)}
	if len(entries) == 0 {
		if r.n != 0 {
			return nil, fmt.Errorf("router: snapshot plan has no shards over %d keys", r.n)
		}
		return r, nil
	}
	nsh := len(entries)
	r.bounds = make([]K, nsh)
	r.offs = make([]int, nsh)
	r.shards = make([]index.Index[K], nsh)
	r.choices = make([]Choice, nsh)
	for i, e := range entries {
		lo, hi := e.off, e.off+e.length
		shardKeys := keys[lo:hi]
		if uint64(shardKeys[0]) != e.bound {
			return nil, fmt.Errorf("router: shard %d bound %d does not match key %d at rank %d",
				i, e.bound, shardKeys[0], lo)
		}
		// A cut inside a duplicate run would break the local-rank + offset
		// identity Find relies on (shardCuts never produces one).
		if lo > 0 && keys[lo-1] == shardKeys[0] {
			return nil, fmt.Errorf("router: shard %d cut at rank %d splits a duplicate run", i, lo)
		}
		var ix index.Index[K]
		var serr error
		switch e.mode {
		case shardTable:
			var tab *core.Table[K]
			tab, serr = core.MapTableWithKeys(m, shardKeys, secRouterShardModel, secRouterShardLayer)
			if serr == nil {
				ix = index.NewShiftIndex(tab)
			}
		case shardModelIndex:
			ix, serr = core.MapModelIndexWithKeys(m, shardKeys, secRouterShardModel)
		case shardRebuild:
			ix, serr = index.Build(e.backend, shardKeys)
		default:
			serr = fmt.Errorf("unknown shard persistence mode %d", e.mode)
		}
		if serr != nil {
			return nil, fmt.Errorf("router: restoring shard %d (%s): %w", i, e.backend, serr)
		}
		if ix.Len() != e.length {
			return nil, fmt.Errorf("router: shard %d restored with %d keys, plan records %d",
				i, ix.Len(), e.length)
		}
		r.bounds[i] = shardKeys[0]
		r.offs[i] = lo
		r.shards[i] = ix
		r.choices[i] = Choice{
			Backend:  e.backend,
			EstNs:    e.estNs,
			FirstKey: e.bound,
			Len:      e.length,
			Measured: e.measured,
		}
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	if region := m.Region(); region != nil {
		region.Retain()
		runtime.AddCleanup(r, func(reg *mapped.Region) { reg.Release() }, region)
		r.region = region
	}
	return r, nil
}

// Mapped reports whether the router serves from a mapped snapshot region.
func (r *Router[K]) Mapped() bool { return r.region != nil }

// MappedBytes returns the backing region size (0 when heap-resident).
func (r *Router[K]) MappedBytes() int64 {
	if r.region == nil {
		return 0
	}
	return int64(r.region.Len())
}

func init() {
	index.RegisterLoader[uint64](SnapshotKind, func(m *snapshot.Mapped) (index.Index[uint64], error) {
		return mapSnapshot[uint64](m)
	})
	index.RegisterLoader[uint32](SnapshotKind, func(m *snapshot.Mapped) (index.Index[uint32], error) {
		return mapSnapshot[uint32](m)
	})
}
