package concurrent

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/kv"
	snap "repro/internal/snapshot"
	"repro/internal/updatable"
)

// This file persists the concurrent index (DESIGN.md §9). A snapshot of
// the serving index is exactly one of its published read snapshots: the
// updatable.View (persisted through the updatable section sequence) plus
// the write generations stacked on top. Because the published snapshot
// is immutable, persistence runs concurrently with reads, writes and
// compactions without any locks — it streams whatever state one atomic
// pointer load returned.
//
// Every loader reads a full snapshot into a State first (MapState, the
// one decoder; mapped.go) — the unit a replica installs — and the index
// loaders (LoadFile and the registered loader behind index.Load,
// index.LoadFile and index.LoadFileMapped) then assemble it into a live
// index: the persisted generations merge into one sealed run under a
// fresh write head. Tombstones cancel by key value and rank, count and
// scan are sums over generations, so the merged run reproduces the
// persisted multiset exactly.
//
// The loader reads only what this build writes. The retired kind
// "updatable" (a bare view, as earlier builds saved their single-threaded
// index) and views that carry the insert buffer or tombstones those
// builds kept inside the view are refused with snapshot.ErrLegacy;
// internal/migrate turns them into the oldest generation of a concurrent
// container.

// SnapshotKind identifies concurrent-index snapshots.
const SnapshotKind = "concurrent"

// legacyKind is the kind earlier builds saved their single-threaded
// index under. No loader reads it: MapState refuses it with
// snapshot.ErrLegacy.
const legacyKind = "updatable"

// Section ids of the concurrent kind (the embedded view uses the
// updatable ids in between).
const (
	secConMeta = 20
	secConIns  = 21 // repeated, one per generation, oldest first
	secConDels = 22 // repeated, paired with secConIns
)

// maxSnapshotGens bounds the generation count a snapshot may claim. Live
// stacks hold at most four generations (older builds wrote one per 1,024
// pending writes); anything beyond this is a corrupt header.
const maxSnapshotGens = 1 << 20

// metaReserved is the length of the meta section's leading reserved
// bytes, before the generation count: older builds stored a compaction
// policy there, this one writes zeros and every reader ignores them.
const metaReserved = 20

// SnapshotKind implements the persistence capability (same shape as
// index.Persister).
func (ix *Index[K]) SnapshotKind() string { return SnapshotKind }

// PersistSnapshot writes the current published snapshot: meta, view,
// and the pending write generations. Lock-free — concurrent writes land
// in successor snapshots and are simply not part of this one.
func (ix *Index[K]) PersistSnapshot(sw *snap.Writer) error {
	return ix.persistState(ix.snap.Load(), sw)
}

// persistState streams one immutable snapshot. Replication uses it to
// persist a *captured* published state (PublishedState.Persist) so the
// primary can keep writing while the artifact streams out; the bytes are
// deterministic for a given (layer, state) pair, which is what the
// delta-equivalence tests assert.
func (ix *Index[K]) persistState(s *snapshot[K], sw *snap.Writer) error {
	meta := make([]byte, metaReserved, 24)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(s.gens)))
	if err := sw.Bytes(secConMeta, meta); err != nil {
		return err
	}
	if err := updatable.PersistView(sw, s.view, updatable.Config{Layer: ix.layerCfg()}); err != nil {
		return err
	}
	for _, g := range s.gens {
		if err := snap.WriteKeySection(sw, secConIns, g.ins); err != nil {
			return err
		}
		if err := snap.WriteKeySection(sw, secConDels, g.dels); err != nil {
			return err
		}
	}
	return nil
}

// parseMeta checks the 24-byte meta section and returns its generation
// count.
func parseMeta(meta []byte) (uint32, error) {
	if len(meta) != metaReserved+4 {
		return 0, fmt.Errorf("concurrent: meta section is %d bytes, want %d", len(meta), metaReserved+4)
	}
	genCount := binary.LittleEndian.Uint32(meta[metaReserved:])
	if genCount > maxSnapshotGens {
		return 0, fmt.Errorf("concurrent: snapshot claims %d generations (limit %d)", genCount, maxSnapshotGens)
	}
	return genCount, nil
}

// State is a verified full snapshot not yet serving: the loaded base view
// with its layer configuration, and the generation stack — everything
// InstallState (a replica) or assemble (a warm restart) needs, built
// entirely off the serving path.
type State[K kv.Key] struct {
	view  *updatable.View[K]
	layer core.Config
	gens  []*generation[K]
}

// Len returns the state's live key count.
func (st *State[K]) Len() int {
	s := snapshot[K]{view: st.view, gens: st.gens}
	return s.length()
}

// ModelFingerprint returns the fingerprint of the state's base model.
func (st *State[K]) ModelFingerprint() uint64 { return st.view.ModelFingerprint() }

// LoadStateFile reads a full-snapshot container file into a State,
// verifying every checksum, and running the loader's O(n) checks, before
// the state is returned.
func LoadStateFile[K kv.Key](path string) (*State[K], error) {
	m, err := snap.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := MapState[K](m)
	if err != nil {
		return nil, fmt.Errorf("concurrent: %s: %w", path, err)
	}
	return st, nil
}

// LoadFile restores a concurrent index from a snapshot file
// (LoadStateFile, then assemble).
func LoadFile[K kv.Key](path string) (*Index[K], error) {
	st, err := LoadStateFile[K](path)
	if err != nil {
		return nil, err
	}
	return assemble(st), nil
}

// assemble starts serving a verified State as a live index. The persisted
// generations are already in the exact internal representation (sorted
// multisets whose tombstones cancel by key value), so they fold by the
// same two-way merge a head seal uses into one sealed run, with its
// directory, on the restored view, and a fresh empty write head goes on
// top. A snapshot written with a deep stack (older builds sealed one
// generation per maxHeadLen writes) thus serves the two-generation shape
// from the start. That makes warm restart O(pending · log gens) merge
// work instead of re-executing every pending write one copy-on-write
// publication at a time. The restored index compacts on its next due
// write, not before, so closing it right after the load leaves the
// restored stack in place.
func assemble[K kv.Key](st *State[K]) *Index[K] {
	gens := []*generation[K]{{}}
	if len(st.gens) > 0 {
		gens = []*generation[K]{mergeGens(st.gens), {}}
	}
	return start(st.view, st.layer, gens)
}

// Save writes the index's current published snapshot as one verified
// container.
func Save[K kv.Key](w io.Writer, ix *Index[K]) error {
	sw, err := snap.NewWriter(w, SnapshotKind)
	if err != nil {
		return err
	}
	if err := ix.PersistSnapshot(sw); err != nil {
		return err
	}
	return sw.Close()
}

// SaveFile writes the index's current published snapshot crash-safely to
// path in the mappable v2 layout.
func SaveFile[K kv.Key](path string, ix *Index[K]) error {
	return snap.SaveFile(path, SnapshotKind, ix.PersistSnapshot)
}
