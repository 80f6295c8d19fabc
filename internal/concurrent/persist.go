package concurrent

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/kv"
	snap "repro/internal/snapshot"
	"repro/internal/updatable"
)

// This file persists the concurrent index (DESIGN.md §9). A snapshot of
// the serving index is exactly one of its published read snapshots: the
// frozen updatable.View (persisted through the updatable section
// sequence) plus the sealed write generations stacked on top. Because the
// published snapshot is immutable, persistence runs concurrently with
// reads, writes and compactions without any locks — it streams whatever
// state one atomic pointer load returned.
//
// Warm restart replays rather than reconstructs: Load rebuilds the base
// view, starts a live index (background compactor included), then merges
// the persisted generations into one sealed run under a fresh write head.
// Tombstones cancel by key value and rank, count and scan are sums over
// generations, so the merged run reproduces the persisted multiset
// exactly.

// SnapshotKind identifies concurrent-index snapshots.
const SnapshotKind = "concurrent"

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

// SnapshotKind implements the persistence capability (same shape as
// index.Persister).
func (ix *Index[K]) SnapshotKind() string { return SnapshotKind }

// PersistSnapshot writes the current published snapshot: policy, view,
// and the pending write generations. Lock-free — concurrent writes land
// in successor snapshots and are simply not part of this one.
func (ix *Index[K]) PersistSnapshot(sw *snap.Writer) error {
	return ix.persistState(ix.snap.Load(), sw)
}

// persistState streams one immutable snapshot. Replication uses it to
// persist a *captured* published state (PublishedState.Persist) so the
// primary can keep writing while the artifact streams out; the bytes are
// deterministic for a given (policy, layer, state) triple, which is what
// the delta-equivalence tests assert.
func (ix *Index[K]) persistState(s *snapshot[K], sw *snap.Writer) error {
	meta := make([]byte, 0, 24)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.policy.Kind))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(ix.policy.Fraction))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(ix.policy.Count))
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

// loadSections restores the base and collects the generations to replay.
func loadSections[K kv.Key](sr *snap.Reader) (*updatable.Index[K], CompactionPolicy, []*generation[K], error) {
	var policy CompactionPolicy
	ms, err := sr.Expect(secConMeta)
	if err != nil {
		return nil, policy, nil, err
	}
	meta, err := ms.Bytes(0)
	if err != nil {
		return nil, policy, nil, err
	}
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

	base, err := updatable.LoadView[K](sr)
	if err != nil {
		return nil, policy, nil, err
	}

	gens, err := readGens[K](sr, genCount)
	if err != nil {
		return nil, policy, nil, err
	}
	return base, policy, gens, nil
}

// readGens reads genCount (ins, dels) section pairs — shared by the full
// snapshot loader and the shipped-delta loader (delta.go).
func readGens[K kv.Key](sr *snap.Reader, genCount uint32) ([]*generation[K], error) {
	gens := make([]*generation[K], 0, genCount)
	for i := uint32(0); i < genCount; i++ {
		is, err := sr.Expect(secConIns)
		if err != nil {
			return nil, err
		}
		ins, err := snap.ReadKeySection[K](is, 0)
		if err != nil {
			return nil, err
		}
		dls, err := sr.Expect(secConDels)
		if err != nil {
			return nil, err
		}
		dels, err := snap.ReadKeySection[K](dls, 0)
		if err != nil {
			return nil, err
		}
		if !kv.IsSorted(ins) || !kv.IsSorted(dels) {
			return nil, fmt.Errorf("concurrent: generation %d is not sorted", i)
		}
		gens = append(gens, &generation[K]{ins: ins, dels: dels})
	}
	return gens, nil
}

// Load restores a concurrent index from a snapshot container and
// warm-restarts it: the base view loads directly, the index goes live
// (background compactor running), and the persisted write generations
// replay through the public write path. total is the input size in bytes
// (-1 when unknown).
func Load[K kv.Key](r io.Reader, total int64) (*Index[K], error) {
	var (
		base   *updatable.Index[K]
		policy CompactionPolicy
		gens   []*generation[K]
	)
	err := snap.Load(r, total, func(sr *snap.Reader) error {
		if sr.Kind() != SnapshotKind {
			return fmt.Errorf("concurrent: snapshot kind %q, want %q", sr.Kind(), SnapshotKind)
		}
		var lerr error
		base, policy, gens, lerr = loadSections[K](sr)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return assemble(base, policy, gens)
}

// LoadFile restores a concurrent index from a snapshot file.
func LoadFile[K kv.Key](path string) (*Index[K], error) {
	var (
		base   *updatable.Index[K]
		policy CompactionPolicy
		gens   []*generation[K]
	)
	err := snap.LoadFile(path, func(sr *snap.Reader) error {
		if sr.Kind() != SnapshotKind {
			return fmt.Errorf("concurrent: snapshot kind %q, want %q", sr.Kind(), SnapshotKind)
		}
		var lerr error
		base, policy, gens, lerr = loadSections[K](sr)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return assemble(base, policy, gens)
}

// assemble goes live and replays the persisted delta — called only after
// the container checksum verified. The persisted generations are already
// in the exact internal representation (sorted multisets whose tombstones
// cancel by key value), so they fold by the same two-way merge a head
// seal uses into one sealed run on the restored view, and a fresh empty
// write head goes on top. A snapshot written with a deep stack (older
// builds sealed one generation per maxHeadLen writes) thus serves the
// two-generation shape from the start. That makes warm restart
// O(pending · log gens) merge work instead of re-executing every pending
// write one copy-on-write publication at a time.
//
//shift:swap(warm-restart install under ix.mu before the index escapes)
func assemble[K kv.Key](base *updatable.Index[K], policy CompactionPolicy, gens []*generation[K]) (*Index[K], error) {
	ix, err := Wrap(base, policy)
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		ix.mu.Lock()
		cur := ix.snap.Load()
		s := &snapshot[K]{view: cur.view, gens: []*generation[K]{mergeGens(gens), {}}}
		if s.length() < 0 {
			ix.mu.Unlock()
			ix.Close()
			return nil, fmt.Errorf("concurrent: restored generations cancel more occurrences than exist (corrupt snapshot)")
		}
		ix.snap.Store(s)
		ix.mu.Unlock()
		ix.maybeWake(s)
	}
	return ix, nil
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
