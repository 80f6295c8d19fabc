package updatable

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/core"
	"repro/internal/fenwick"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// This file persists the updatable index (DESIGN.md §9): the base
// Shift-Table (reusing the shift-table section sequence of internal/core,
// so the base's keys, model spec and layer round-trip through the same
// hardened loaders), plus the parts §6 layers on top — the tombstone
// bitmap and the sorted delta buffer. The Fenwick tree is not persisted:
// it is a derived structure, rebuilt from the bitmap at load time, and
// only when the bitmap holds a tombstone.

// SnapshotKind identifies updatable-index snapshots.
const SnapshotKind = "updatable"

// Section ids of the updatable kind (the base table re-uses the
// shift-table ids 1..3 in between).
const (
	secUpdMeta  = 10
	secUpdDead  = 11
	secUpdDelta = 12
)

// SnapshotKind implements the persistence capability (the same shape as
// index.Persister; the updatable index is not an index.Index, so it is
// saved through this package's Save/SaveFile instead of the registry's).
func (ix *Index[K]) SnapshotKind() string { return SnapshotKind }

// PersistSnapshot freezes the current view and writes it. The freeze
// makes the persisted state an immutable snapshot: writes applied to the
// index while (or after) the sections stream out copy-on-write first and
// cannot tear the file.
func (ix *Index[K]) PersistSnapshot(sw *snapshot.Writer) error {
	return PersistView(sw, ix.Freeze(), ix.cfg)
}

// PersistView writes a frozen view plus its configuration as the
// updatable section sequence. internal/concurrent persists the view
// inside each of its snapshots through this.
func PersistView[K kv.Key](sw *snapshot.Writer, v *View[K], cfg Config) error {
	meta := make([]byte, 0, 36)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Layer.Mode))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.Layer.M))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.Layer.SampleStride))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.MaxDelta))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(v.deadCount))
	if err := sw.Bytes(secUpdMeta, meta); err != nil {
		return err
	}
	if err := v.table.PersistSnapshot(sw); err != nil {
		return err
	}
	// The bitmap always covers the whole base (all zero while no tombstone
	// exists), so the file does not depend on whether the view allocated
	// tombstone state.
	dead := make([]byte, (len(v.base)+7)/8)
	for i, d := range v.dead {
		if d {
			dead[i/8] |= 1 << (i % 8)
		}
	}
	dw, err := sw.SectionSized(secUpdDead, int64(len(dead)))
	if err != nil {
		return err
	}
	if _, err := dw.Write(dead); err != nil {
		return err
	}
	return snapshot.WriteKeySection(sw, secUpdDelta, v.delta)
}

// LoadView reads the updatable section sequence back into a live
// single-threaded index whose current view is the persisted one. The
// caller owns checksum verification and must discard the result when it
// fails.
func LoadView[K kv.Key](sr *snapshot.Reader) (*Index[K], error) {
	ms, err := sr.Expect(secUpdMeta)
	if err != nil {
		return nil, err
	}
	meta, err := ms.Bytes(0)
	if err != nil {
		return nil, err
	}
	cfg, deadCount, err := decodeMeta(meta)
	if err != nil {
		return nil, err
	}

	table, err := core.LoadTableSnapshot[K](sr)
	if err != nil {
		return nil, err
	}

	ds, err := sr.Expect(secUpdDead)
	if err != nil {
		return nil, err
	}
	n := table.N()
	want := int64((n + 7) / 8)
	if ds.Len != want {
		return nil, fmt.Errorf("updatable: tombstone bitmap is %d bytes, want %d for %d keys", ds.Len, want, n)
	}
	bitmap, err := ds.Bytes(want + 1)
	if err != nil {
		return nil, err
	}

	dls, err := sr.Expect(secUpdDelta)
	if err != nil {
		return nil, err
	}
	delta, err := snapshot.ReadKeySection[K](dls, 0)
	if err != nil {
		return nil, err
	}
	return assembleView(cfg, deadCount, table, bitmap, delta)
}

// decodeMeta parses and bounds the 36-byte meta section.
func decodeMeta(meta []byte) (Config, uint64, error) {
	if len(meta) != 36 {
		return Config{}, 0, fmt.Errorf("updatable: meta section is %d bytes, want 36", len(meta))
	}
	mode := binary.LittleEndian.Uint32(meta)
	layerM := binary.LittleEndian.Uint64(meta[4:])
	stride := binary.LittleEndian.Uint64(meta[12:])
	maxDelta := binary.LittleEndian.Uint64(meta[20:])
	deadCount := binary.LittleEndian.Uint64(meta[28:])
	if mode != uint32(core.ModeRange) && mode != uint32(core.ModeMidpoint) {
		return Config{}, 0, fmt.Errorf("updatable: invalid layer mode %d in snapshot meta", mode)
	}
	const maxI64 = uint64(1<<63 - 1)
	if layerM > maxI64 || stride > maxI64 || maxDelta > maxI64 {
		return Config{}, 0, fmt.Errorf("updatable: snapshot meta field out of range")
	}
	return Config{
		MaxDelta: int(maxDelta),
		Layer: core.Config{
			Mode:         core.Mode(mode),
			M:            int(layerM),
			SampleStride: int(stride),
		},
	}, deadCount, nil
}

// assembleView validates the cross-section invariants and assembles the
// live index — the half of loading shared by the streaming and mapped
// paths. delta must already be heap-backed: writes mutate it in place.
func assembleView[K kv.Key](cfg Config, deadCount uint64, table *core.Table[K], bitmap []byte, delta []K) (*Index[K], error) {
	base := table.Keys()
	n := len(base)
	if deadCount > uint64(n) {
		return nil, fmt.Errorf("updatable: snapshot records %d tombstones over %d base keys", deadCount, n)
	}
	// The meta's layer M is a *configuration* — it drives the allocations
	// of every future compaction rebuild, so it gets the same sanity bound
	// the layer loader applies (M defaults to N; reduced configurations
	// shrink it; nothing legitimate inflates it by orders of magnitude).
	// A hostile value would otherwise load fine and crash the first
	// compaction instead.
	if uint64(cfg.Layer.M) > 64*uint64(n+1) {
		return nil, fmt.Errorf("updatable: snapshot layer config M=%d is not credible for %d base keys", cfg.Layer.M, n)
	}
	if n%8 != 0 && bitmap[len(bitmap)-1]>>(n%8) != 0 {
		return nil, fmt.Errorf("updatable: tombstone bitmap has bits set past key %d", n-1)
	}
	popcount := 0
	for _, b := range bitmap {
		popcount += bits.OnesCount8(b)
	}
	if uint64(popcount) != deadCount {
		return nil, fmt.Errorf("updatable: tombstone bitmap holds %d tombstones, meta records %d", popcount, deadCount)
	}
	if !kv.IsSorted(delta) {
		return nil, fmt.Errorf("updatable: snapshot delta buffer is not sorted")
	}
	ix := &Index[K]{cfg: cfg}
	ix.v = &View[K]{base: base, table: table, deadCount: popcount, delta: delta}
	if popcount > 0 {
		dead := make([]bool, n)
		for i := range dead {
			dead[i] = bitmap[i/8]&(1<<(i%8)) != 0
		}
		// The Fenwick tree is derived state: one O(n) bulk construction
		// from the bitmap, not deadCount O(log n) point updates on the
		// restart hot path.
		ix.v.dead = dead
		ix.v.delTree = fenwick.FromBools(dead)
	}
	ix.maxDelta = resolveMaxDelta(cfg.MaxDelta, n)
	return ix, nil
}

// resolveMaxDelta is the compaction-threshold default shared by
// setBaseFrom and the snapshot loader.
func resolveMaxDelta(cfgMax, n int) int {
	if cfgMax != 0 {
		return cfgMax
	}
	maxDelta := n / 64
	if maxDelta < 1024 {
		maxDelta = 1024
	}
	return maxDelta
}

// Save writes the index as one verified snapshot container.
func Save[K kv.Key](w io.Writer, ix *Index[K]) error {
	sw, err := snapshot.NewWriter(w, SnapshotKind)
	if err != nil {
		return err
	}
	if err := ix.PersistSnapshot(sw); err != nil {
		return err
	}
	return sw.Close()
}

// SaveFile writes the index crash-safely to path in the mappable v2
// layout.
func SaveFile[K kv.Key](path string, ix *Index[K]) error {
	return snapshot.SaveFile(path, SnapshotKind, ix.PersistSnapshot)
}

// Load restores an updatable index from a snapshot container; total is
// the input size in bytes (-1 when unknown).
func Load[K kv.Key](r io.Reader, total int64) (*Index[K], error) {
	var ix *Index[K]
	err := snapshot.Load(r, total, func(sr *snapshot.Reader) error {
		if sr.Kind() != SnapshotKind {
			return fmt.Errorf("updatable: snapshot kind %q, want %q", sr.Kind(), SnapshotKind)
		}
		var lerr error
		ix, lerr = LoadView[K](sr)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// LoadFile restores an updatable index from a snapshot file.
func LoadFile[K kv.Key](path string) (*Index[K], error) {
	var ix *Index[K]
	err := snapshot.LoadFile(path, func(sr *snapshot.Reader) error {
		if sr.Kind() != SnapshotKind {
			return fmt.Errorf("updatable: snapshot kind %q, want %q", sr.Kind(), SnapshotKind)
		}
		var lerr error
		ix, lerr = LoadView[K](sr)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}
