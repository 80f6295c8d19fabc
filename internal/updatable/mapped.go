package updatable

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// Mapped reports whether the current base table serves from a mapped
// snapshot region (compaction rebuilds onto the heap, flipping this
// false for the life of the process).
func (ix *Index[K]) Mapped() bool { return ix.v.table.Mapped() }

// MappedBytes returns the size of the region backing the current base
// table, 0 when heap-resident.
func (ix *Index[K]) MappedBytes() int64 { return ix.v.table.MappedBytes() }

// MapView restores an updatable index over a mapped v2 container: the
// base table (keys, drift arrays, counts) is viewed in place through
// core's mapped loaders, while the mutable small state — the tombstone
// array and the delta buffer — is materialised on the heap, because
// writes mutate both in place and the mapping is read-only. The restart
// cost is therefore an O(n/8) popcount of the bitmap (plus its expansion
// and the Fenwick build when it holds a tombstone), not O(n·keywidth) for
// key and layer copies.
func MapView[K kv.Key](m *snapshot.Mapped) (*Index[K], error) {
	if m.Kind() != SnapshotKind {
		return nil, fmt.Errorf("updatable: container holds %q, want %q", m.Kind(), SnapshotKind)
	}
	m.Rewind()
	ix, err := MapViewSections[K](m)
	if err != nil {
		return nil, err
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	return ix, nil
}

// MapViewFile restores an updatable index by mapping path when
// possible, falling back to the verified streaming load. The flag
// reports which path served.
func MapViewFile[K kv.Key](path string) (*Index[K], bool, error) {
	m, err := snapshot.MapFile(path)
	if err == nil {
		defer m.Close()
		if ix, merr := MapView[K](m); merr == nil {
			return ix, true, nil
		}
	}
	ix, herr := LoadFile[K](path)
	if herr != nil {
		return nil, false, herr
	}
	return ix, false, nil
}

// MapViewSections views the updatable section sequence from the
// container's current cursor — the embedded form internal/concurrent
// persists inside its own kind.
func MapViewSections[K kv.Key](m *snapshot.Mapped) (*Index[K], error) {
	ms, err := m.Expect(secUpdMeta)
	if err != nil {
		return nil, err
	}
	cfg, deadCount, err := decodeMeta(ms.Data)
	if err != nil {
		return nil, err
	}
	table, err := core.MapTableSections[K](m)
	if err != nil {
		return nil, err
	}
	ds, err := m.Expect(secUpdDead)
	if err != nil {
		return nil, err
	}
	n := table.N()
	if want := (n + 7) / 8; len(ds.Data) != want {
		return nil, fmt.Errorf("updatable: tombstone bitmap is %d bytes, want %d for %d keys", len(ds.Data), want, n)
	}
	dls, err := m.Expect(secUpdDelta)
	if err != nil {
		return nil, err
	}
	deltaView, err := snapshot.MapKeySection[K](dls)
	if err != nil {
		return nil, err
	}
	delta := append(make([]K, 0, len(deltaView)), deltaView...)
	return assembleView(cfg, deadCount, table, ds.Data, delta)
}
