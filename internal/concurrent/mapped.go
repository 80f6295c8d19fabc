package concurrent

import (
	"fmt"

	"repro/internal/kv"
	snap "repro/internal/snapshot"
	"repro/internal/updatable"
)

// This file is the concurrent index's one load path: the base view's
// keys and layer are viewed from the opened container (see
// updatable.MapViewSections), while the pending write generations are
// copied to the heap. The dominant restart cost (key and layer
// copies, O(n·keywidth)) disappears; what remains is one pass over the
// n/8-byte all-zero tombstone bitmap plus O(pending) generation copies.

// Mapped reports whether the published snapshot's base table serves
// from a mapped region (the first compaction rebuilds onto the heap).
func (ix *Index[K]) Mapped() bool { return ix.snap.Load().view.Table().Mapped() }

// MappedBytes returns the size of the region backing the published base
// table, 0 when heap-resident.
func (ix *Index[K]) MappedBytes() int64 { return ix.snap.Load().view.Table().MappedBytes() }

// mapGens reads genCount (ins, dels) section pairs — shared by full
// snapshots and shipped deltas (delta.go). Every generation but the last,
// the write head once installed, is sealed with its directory before any
// reader can see it.
func mapGens[K kv.Key](m *snap.Mapped, genCount uint32) ([]*generation[K], error) {
	gens := make([]*generation[K], 0, genCount)
	for i := uint32(0); i < genCount; i++ {
		ins, err := mapGenHalf[K](m, secConIns)
		if err != nil {
			return nil, err
		}
		dels, err := mapGenHalf[K](m, secConDels)
		if err != nil {
			return nil, err
		}
		if !kv.IsSorted(ins) || !kv.IsSorted(dels) {
			return nil, fmt.Errorf("concurrent: generation %d is not sorted", i)
		}
		g := &generation[K]{ins: ins, dels: dels}
		if i+1 < genCount {
			g = sealGen(g)
		}
		gens = append(gens, g)
	}
	return gens, nil
}

// mapGenHalf reads one generation key section onto the heap (pending
// writes are small and their lifetime is decoupled from the mapping's).
func mapGenHalf[K kv.Key](m *snap.Mapped, id uint32) ([]K, error) {
	s, err := m.Expect(id)
	if err != nil {
		return nil, err
	}
	return snap.CopyKeySection[K](s)
}

// MapState reads a full-snapshot container into a not-yet-serving State
// (the unit replicas install), viewing the base in place and copying the
// generations to the heap. It is the one decoder of the kind: the heap
// loaders (LoadStateFile, LoadFile) open and verify the container
// first, and the O(n) base checks run exactly when it is verified. A
// caller of the mapped open owns integrity: either the artifact's bytes
// were CRC-verified as they landed (the replica spool path) or
// Mapped.VerifyAll / an external content checksum ran first.
func MapState[K kv.Key](m *snap.Mapped) (*State[K], error) {
	m.Rewind()
	var genCount uint32
	switch m.Kind() {
	case SnapshotKind:
		ms, err := m.Expect(secConMeta)
		if err != nil {
			return nil, err
		}
		if genCount, err = parseMeta(ms.Data); err != nil {
			return nil, err
		}
	case legacyKind:
		return nil, fmt.Errorf("concurrent: container holds the retired %q kind: %w", legacyKind, snap.ErrLegacy)
	default:
		return nil, fmt.Errorf("concurrent: container holds %q, want %q", m.Kind(), SnapshotKind)
	}
	base, err := updatable.MapViewSections[K](m)
	if err != nil {
		return nil, err
	}
	gens, err := mapGens[K](m, genCount)
	if err != nil {
		return nil, err
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	// The base goes under its persisted generations, which must not
	// cancel more occurrences than exist.
	st := &State[K]{view: base.View(), layer: base.Config().Layer, gens: gens}
	if st.Len() < 0 {
		return nil, fmt.Errorf("concurrent: state generations cancel more occurrences than exist (corrupt snapshot)")
	}
	return st, nil
}

// MapStateFile maps a full-snapshot container file into a State whose
// base serves from the mapping.
func MapStateFile[K kv.Key](path string) (*State[K], error) {
	m, err := snap.MapFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	st, err := MapState[K](m)
	if err != nil {
		return nil, fmt.Errorf("concurrent: %s: %w", path, err)
	}
	return st, nil
}

// Mapped reports whether the state's base table is a mapped view.
func (st *State[K]) Mapped() bool { return st.view.Table().Mapped() }
