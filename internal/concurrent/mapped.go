package concurrent

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/kv"
	snap "repro/internal/snapshot"
	"repro/internal/updatable"
)

// This file is the concurrent index's zero-copy restart path: the base
// view's keys and layer are viewed from the mapped container (see
// updatable.MapViewSections), while the small mutable state — the
// tombstone array, the delta buffer, and the pending write generations —
// is materialised on the heap as usual. The dominant restart cost (key
// and layer copies, O(n·keywidth)) disappears; what remains is O(n/8)
// bitmap work plus O(pending) generation copies.

// Mapped reports whether the published snapshot's base table serves
// from a mapped region (the first compaction rebuilds onto the heap).
func (ix *Index[K]) Mapped() bool { return ix.snap.Load().view.Table().Mapped() }

// MappedBytes returns the size of the region backing the published base
// table, 0 when heap-resident.
func (ix *Index[K]) MappedBytes() int64 { return ix.snap.Load().view.Table().MappedBytes() }

// mapSections is loadSections over a mapped container: same meta parse
// and bounds, base viewed in place, generations copied to the heap.
func mapSections[K kv.Key](m *snap.Mapped) (*updatable.Index[K], CompactionPolicy, []*generation[K], error) {
	var policy CompactionPolicy
	ms, err := m.Expect(secConMeta)
	if err != nil {
		return nil, policy, nil, err
	}
	meta := ms.Data
	if len(meta) != 24 {
		return nil, policy, nil, fmt.Errorf("concurrent: meta section is %d bytes, want 24", len(meta))
	}
	policy.Kind = PolicyKind(binary.LittleEndian.Uint32(meta))
	policy.Fraction = math.Float64frombits(binary.LittleEndian.Uint64(meta[4:]))
	count := binary.LittleEndian.Uint64(meta[12:])
	genCount := binary.LittleEndian.Uint32(meta[20:])
	if count > uint64(1<<62) {
		return nil, policy, nil, fmt.Errorf("concurrent: policy count %d is not credible", count)
	}
	policy.Count = int(count)
	if err := policy.validate(); err != nil {
		return nil, policy, nil, err
	}
	if genCount > maxSnapshotGens {
		return nil, policy, nil, fmt.Errorf("concurrent: snapshot claims %d generations (limit %d)",
			genCount, maxSnapshotGens)
	}

	base, err := updatable.MapViewSections[K](m)
	if err != nil {
		return nil, policy, nil, err
	}

	gens := make([]*generation[K], 0, genCount)
	for i := uint32(0); i < genCount; i++ {
		ins, err := mapGenHalf[K](m, secConIns)
		if err != nil {
			return nil, policy, nil, err
		}
		dels, err := mapGenHalf[K](m, secConDels)
		if err != nil {
			return nil, policy, nil, err
		}
		if !kv.IsSorted(ins) || !kv.IsSorted(dels) {
			return nil, policy, nil, fmt.Errorf("concurrent: generation %d is not sorted", i)
		}
		gens = append(gens, &generation[K]{ins: ins, dels: dels})
	}
	return base, policy, gens, nil
}

// mapGenHalf reads one generation key section onto the heap (pending
// writes are small and their lifetime is decoupled from the mapping's).
func mapGenHalf[K kv.Key](m *snap.Mapped, id uint32) ([]K, error) {
	s, err := m.Expect(id)
	if err != nil {
		return nil, err
	}
	view, err := snap.MapKeySection[K](s)
	if err != nil {
		return nil, err
	}
	return append(make([]K, 0, len(view)), view...), nil
}

// MapIndex restores a concurrent index over a mapped v2 container and
// warm-restarts it exactly as Load does.
func MapIndex[K kv.Key](m *snap.Mapped) (*Index[K], error) {
	if m.Kind() != SnapshotKind {
		return nil, fmt.Errorf("concurrent: container holds %q, want %q", m.Kind(), SnapshotKind)
	}
	m.Rewind()
	base, policy, gens, err := mapSections[K](m)
	if err != nil {
		return nil, err
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	return assemble(base, policy, gens)
}

// MapFile restores a concurrent index by mapping path when possible,
// falling back to the verified streaming load otherwise. The returned
// flag reports which path served.
func MapFile[K kv.Key](path string) (*Index[K], bool, error) {
	m, err := snap.MapFile(path)
	if err == nil {
		defer m.Close()
		if ix, merr := MapIndex[K](m); merr == nil {
			return ix, true, nil
		}
	}
	ix, herr := LoadFile[K](path)
	if herr != nil {
		return nil, false, herr
	}
	return ix, false, nil
}

// MapState reads a full-snapshot container into a not-yet-serving State
// (the unit replicas install), viewing the base in place. The caller
// owns integrity: either the artifact's bytes were CRC-verified as they
// landed (the replica spool path) or Mapped.VerifyAll / an external
// content checksum ran first.
func MapState[K kv.Key](m *snap.Mapped) (*State[K], error) {
	if m.Kind() != SnapshotKind {
		return nil, fmt.Errorf("concurrent: container holds %q, want %q", m.Kind(), SnapshotKind)
	}
	m.Rewind()
	base, policy, gens, err := mapSections[K](m)
	if err != nil {
		return nil, err
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	st := &State[K]{base: base, view: base.Freeze(), policy: policy, gens: gens}
	if st.Len() < 0 {
		return nil, fmt.Errorf("concurrent: state generations cancel more occurrences than exist (corrupt snapshot)")
	}
	return st, nil
}

// MapStateFile reads a full-snapshot container file into a State by
// mapping when possible, falling back to the streaming load. The
// returned flag reports which path served.
func MapStateFile[K kv.Key](path string) (*State[K], bool, error) {
	m, err := snap.MapFile(path)
	if err == nil {
		defer m.Close()
		if st, merr := MapState[K](m); merr == nil {
			return st, true, nil
		}
	}
	st, herr := LoadStateFile[K](path)
	if herr != nil {
		return nil, false, herr
	}
	return st, false, nil
}

// Mapped reports whether the state's base table is a mapped view.
func (st *State[K]) Mapped() bool { return st.view.Table().Mapped() }
