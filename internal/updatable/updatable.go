// Package updatable is the read-optimised base of the updatable
// Shift-Table index: a sorted key array with a Shift-Table over the
// paper's IM model, built once and never mutated. The paper's future-work
// direction (§6) — capture updates next to the base and correct for them
// at query time — lives in internal/concurrent, whose immutable write
// generations hold every pending insert and delete by value and whose
// compactor rebuilds the base through NewFrom.
//
// The read state lives in View (view.go); persist.go and mapped.go write
// and read its section sequence. Files written by older builds may carry
// an insert buffer and tombstoned base slots inside that sequence; the
// readers refuse them with snapshot.ErrLegacy, and internal/migrate turns
// them into one write generation of a concurrent container.
package updatable

import (
	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/mapped"
)

// Config parameterises New.
type Config struct {
	// Layer configures the Shift-Table over the base (§3 defaults apply).
	Layer core.Config
}

// Index is one built base: its configuration and its immutable View.
type Index[K kv.Key] struct {
	cfg Config
	v   *View[K]
}

// New builds the base over a copy of the sorted keys (which may be
// empty). The copy is a mapped.MakeHuge array: lookups read it on huge
// pages (DESIGN.md §8).
func New[K kv.Key](keys []K, cfg Config) (*Index[K], error) {
	base := mapped.MakeHuge[K](len(keys))
	copy(base, keys)
	return NewFrom(base, cfg, nil)
}

// NewFrom is New seeded with a predecessor base table, and it takes
// ownership of keys: the view serves the slice itself, so the caller must
// not modify it afterwards. The build runs the streaming pipeline
// (DESIGN.md §8), which refuses unsorted keys, and the new base adopts
// prev's batch-scratch pool, so a rebuild chain (internal/concurrent's
// compactor rebuilds off to the side and passes the sealed snapshot's
// table here) allocates only the merged keys and the packed layer in
// steady state. A nil prev builds from scratch.
func NewFrom[K kv.Key](keys []K, cfg Config, prev *core.Table[K]) (*Index[K], error) {
	table, err := prev.BuildNext(keys, cdfmodel.NewInterpolation(keys), cfg.Layer, 0)
	if err != nil {
		return nil, err
	}
	return &Index[K]{cfg: cfg, v: &View[K]{base: keys, table: table}}, nil
}

// Config returns the configuration the index was built with.
func (ix *Index[K]) Config() Config { return ix.cfg }

// View returns the immutable read view, safe for concurrent readers.
func (ix *Index[K]) View() *View[K] { return ix.v }
