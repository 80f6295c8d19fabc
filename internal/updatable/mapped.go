package updatable

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// MapViewSections reads the updatable section sequence from the
// container's current cursor — the embedded form internal/concurrent
// persists inside its own kind: the base, viewed in place through core's
// loaders, and its configuration. A view that stores pending writes (a
// set tombstone bit, a non-empty insert buffer) is refused with
// snapshot.ErrLegacy. The restart cost is one pass over the n/8-byte
// bitmap, not O(n·keywidth) key and layer copies.
func MapViewSections[K kv.Key](m *snapshot.Mapped) (*Index[K], error) {
	ms, err := m.Expect(secUpdMeta)
	if err != nil {
		return nil, err
	}
	cfg, err := decodeMeta(ms.Data)
	if err != nil {
		return nil, err
	}
	table, err := core.MapTableSections[K](m)
	if err != nil {
		return nil, err
	}
	n := table.Len()
	// The meta's layer M sizes every future compaction rebuild, so it
	// gets the layer loader's sanity bound: a hostile value would
	// otherwise load fine and crash the first compaction instead.
	if uint64(cfg.Layer.M) > 64*uint64(n+1) {
		return nil, fmt.Errorf("updatable: snapshot layer config M=%d is not credible for %d base keys", cfg.Layer.M, n)
	}
	ds, err := m.Expect(secUpdDead)
	if err != nil {
		return nil, err
	}
	if want := (n + 7) / 8; len(ds.Data) != want {
		return nil, fmt.Errorf("updatable: tombstone bitmap is %d bytes, want %d for %d keys", len(ds.Data), want, n)
	}
	for _, b := range ds.Data {
		if b != 0 {
			return nil, fmt.Errorf("updatable: view has tombstoned base keys: %w", snapshot.ErrLegacy)
		}
	}
	dls, err := m.Expect(secUpdDelta)
	if err != nil {
		return nil, err
	}
	buffer, err := snapshot.MapKeySection[K](dls)
	if err != nil {
		return nil, err
	}
	if len(buffer) != 0 {
		return nil, fmt.Errorf("updatable: view holds a %d-key insert buffer: %w", len(buffer), snapshot.ErrLegacy)
	}
	return &Index[K]{cfg: cfg, v: &View[K]{base: table.Keys(), table: table}}, nil
}
