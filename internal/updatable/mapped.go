package updatable

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// MapViewSections reads the updatable section sequence from the
// container's current cursor — the embedded form internal/concurrent
// persists inside its own kind: the base, with its configuration, and
// the pending writes an older writer may have stored with it — ins, its
// insert buffer, and dels, the keys of its tombstoned base slots — each
// sorted, and both empty for every file this build writes. The base
// table (keys, drift arrays, counts) is viewed in place through core's
// loaders; the legacy pending writes are copied to the heap, because
// their lifetime is decoupled from the mapping's. The restart cost is
// one pass over the n/8-byte bitmap, not O(n·keywidth) key and layer
// copies.
func MapViewSections[K kv.Key](m *snapshot.Mapped) (ix *Index[K], ins, dels []K, err error) {
	ms, err := m.Expect(secUpdMeta)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg, deadCount, err := decodeMeta(ms.Data)
	if err != nil {
		return nil, nil, nil, err
	}
	table, err := core.MapTableSections[K](m)
	if err != nil {
		return nil, nil, nil, err
	}
	ds, err := m.Expect(secUpdDead)
	if err != nil {
		return nil, nil, nil, err
	}
	n := table.N()
	if want := (n + 7) / 8; len(ds.Data) != want {
		return nil, nil, nil, fmt.Errorf("updatable: tombstone bitmap is %d bytes, want %d for %d keys", len(ds.Data), want, n)
	}
	dls, err := m.Expect(secUpdDelta)
	if err != nil {
		return nil, nil, nil, err
	}
	ins, err = snapshot.CopyKeySection[K](dls)
	if err != nil {
		return nil, nil, nil, err
	}
	return assemble(cfg, deadCount, table, ds.Data, ins)
}
