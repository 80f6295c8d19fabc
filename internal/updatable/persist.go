package updatable

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// This file persists a base view (DESIGN.md §9) as the updatable section
// sequence: a meta section, the base Shift-Table (the shift-table section
// sequence of internal/core, so keys, model spec and layer round-trip
// through the same hardened loaders), a tombstone bitmap and an insert
// buffer. The last two held the pending writes of the single-threaded
// index earlier builds had. This build writes them empty — an all-zero
// bitmap covering the base and an empty buffer, the bytes every earlier
// writer produced for a view without pending writes — and the loader
// (MapViewSections, mapped.go) returns whatever an older file stored in
// them as plain sorted slices, which internal/concurrent serves as one
// write generation.

// SnapshotKind is the container kind earlier builds saved a bare
// updatable index under. This build writes no such container; it is
// read-only legacy, and internal/concurrent registers the kind and loads
// it as a concurrent index.
const SnapshotKind = "updatable"

// Section ids of the updatable sequence (the base table re-uses the
// shift-table ids 1..3 in between).
const (
	secUpdMeta  = 10
	secUpdDead  = 11
	secUpdDelta = 12
)

// metaLen is the meta section's length: layer mode (u32), layer M and
// sample stride (u64 each), then the insert-buffer threshold and the
// tombstone count of earlier builds (u64 each; written as 0, and only
// the tombstone count is read back).
const metaLen = 36

// PersistView writes v plus its configuration as the updatable section
// sequence. internal/concurrent persists the view inside each of its
// snapshots through this.
func PersistView[K kv.Key](sw *snapshot.Writer, v *View[K], cfg Config) error {
	meta := make([]byte, 0, metaLen)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(cfg.Layer.Mode))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.Layer.M))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.Layer.SampleStride))
	meta = append(meta, make([]byte, metaLen-len(meta))...)
	if err := sw.Bytes(secUpdMeta, meta); err != nil {
		return err
	}
	if err := v.table.PersistSnapshot(sw); err != nil {
		return err
	}
	dead := make([]byte, (len(v.base)+7)/8)
	dw, err := sw.SectionSized(secUpdDead, int64(len(dead)))
	if err != nil {
		return err
	}
	if _, err := dw.Write(dead); err != nil {
		return err
	}
	return snapshot.WriteKeySection[K](sw, secUpdDelta, nil)
}

// decodeMeta parses and bounds the meta section, returning the
// configuration and the recorded tombstone count.
func decodeMeta(meta []byte) (Config, uint64, error) {
	if len(meta) != metaLen {
		return Config{}, 0, fmt.Errorf("updatable: meta section is %d bytes, want %d", len(meta), metaLen)
	}
	mode := binary.LittleEndian.Uint32(meta)
	layerM := binary.LittleEndian.Uint64(meta[4:])
	stride := binary.LittleEndian.Uint64(meta[12:])
	deadCount := binary.LittleEndian.Uint64(meta[28:])
	if mode != uint32(core.ModeRange) && mode != uint32(core.ModeMidpoint) {
		return Config{}, 0, fmt.Errorf("updatable: invalid layer mode %d in snapshot meta", mode)
	}
	const maxI64 = uint64(1<<63 - 1)
	if layerM > maxI64 || stride > maxI64 {
		return Config{}, 0, fmt.Errorf("updatable: snapshot meta field out of range")
	}
	return Config{Layer: core.Config{
		Mode:         core.Mode(mode),
		M:            int(layerM),
		SampleStride: int(stride),
	}}, deadCount, nil
}

// assemble validates the cross-section invariants and returns the base
// plus the legacy pending writes. ins must already be heap-backed.
func assemble[K kv.Key](cfg Config, deadCount uint64, table *core.Table[K], bitmap []byte, ins []K) (*Index[K], []K, []K, error) {
	base := table.Keys()
	n := len(base)
	if deadCount > uint64(n) {
		return nil, nil, nil, fmt.Errorf("updatable: snapshot records %d tombstones over %d base keys", deadCount, n)
	}
	// The meta's layer M is a *configuration* — it drives the allocations
	// of every future compaction rebuild, so it gets the same sanity bound
	// the layer loader applies (M defaults to N; reduced configurations
	// shrink it; nothing legitimate inflates it by orders of magnitude).
	// A hostile value would otherwise load fine and crash the first
	// compaction instead.
	if uint64(cfg.Layer.M) > 64*uint64(n+1) {
		return nil, nil, nil, fmt.Errorf("updatable: snapshot layer config M=%d is not credible for %d base keys", cfg.Layer.M, n)
	}
	if n%8 != 0 && bitmap[len(bitmap)-1]>>(n%8) != 0 {
		return nil, nil, nil, fmt.Errorf("updatable: tombstone bitmap has bits set past key %d", n-1)
	}
	// The tombstoned keys, in base order and so sorted. A bitmap without
	// a set bit — every file this build writes — costs one pass over its
	// n/8 bytes and allocates nothing.
	var dels []K
	for i, b := range bitmap {
		for ; b != 0; b &= b - 1 {
			dels = append(dels, base[8*i+bits.TrailingZeros8(b)])
		}
	}
	if uint64(len(dels)) != deadCount {
		return nil, nil, nil, fmt.Errorf("updatable: tombstone bitmap holds %d tombstones, meta records %d", len(dels), deadCount)
	}
	if !kv.IsSorted(ins) {
		return nil, nil, nil, fmt.Errorf("updatable: snapshot insert buffer is not sorted")
	}
	return &Index[K]{cfg: cfg, v: &View[K]{base: base, table: table}}, ins, dels, nil
}
