package concurrent

import (
	"repro/internal/index"
	"repro/internal/kv"
	snap "repro/internal/snapshot"
)

// The concurrent index registers its snapshot kind with the index
// registry (same router pattern as internal/router), so a replicated
// artifact of kind "concurrent" loads through the generic
// index.Load/LoadFile dispatch. Like LoadFile, the loader reads a
// State (MapState) and assembles it, so the kind maps through
// index.LoadFileMapped. The retired kind "updatable" goes to the same
// loader, whose refusal (snapshot.ErrLegacy) then names the migration
// instead of the registry reporting an unknown kind. The restored index
// is live — its compactor goroutine waits for the next due write — so
// callers that care about goroutine hygiene should assert to *Index and
// Close it.

func init() {
	registerLoader[uint64]()
	registerLoader[uint32]()
}

func registerLoader[K kv.Key]() {
	load := func(m *snap.Mapped) (index.Index[K], error) {
		st, err := MapState[K](m)
		if err != nil {
			return nil, err
		}
		return assemble(st), nil
	}
	index.RegisterLoader[K](SnapshotKind, load)
	index.RegisterLoader[K](legacyKind, load)
}
