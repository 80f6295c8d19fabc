package concurrent

import (
	"repro/internal/index"
	"repro/internal/kv"
	snap "repro/internal/snapshot"
)

// The concurrent index registers its snapshot kind with the index
// registry (same router pattern as internal/router and
// internal/updatable), so a replicated artifact of kind "concurrent"
// loads through the generic index.Load/LoadFile dispatch. Like Load, the
// loader reads a State and assembles it. The restored index is live — its
// compactor goroutine waits for the next due write — so callers that care
// about goroutine hygiene should assert to *Index and Close it.

func init() {
	registerLoader[uint64]()
	registerLoader[uint32]()
}

func registerLoader[K kv.Key]() {
	index.RegisterSnapshotLoader[K](SnapshotKind, func(sr *snap.Reader) (index.Index[K], error) {
		st, err := readState[K](sr)
		if err != nil {
			return nil, err
		}
		return assemble(st), nil
	})
}
