package updatable

import (
	"encoding/binary"
	"fmt"

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
// bitmap covering the base and an empty buffer — and the loader
// (MapViewSections, mapped.go) refuses a view that stores anything in
// them with snapshot.ErrLegacy: internal/migrate moves such writes into
// a generation of the concurrent container.

// Section ids of the updatable sequence (the base table re-uses the
// shift-table ids 1..3 in between).
const (
	secUpdMeta  = 10
	secUpdDead  = 11
	secUpdDelta = 12
)

// metaLen is the meta section's length: layer mode (u32), layer M and
// sample stride (u64 each), then the insert-buffer threshold and the
// tombstone count of earlier builds (u64 each; written as 0, and a
// nonzero tombstone count is refused as legacy).
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
// configuration. A recorded tombstone count is legacy.
func decodeMeta(meta []byte) (Config, error) {
	if len(meta) != metaLen {
		return Config{}, fmt.Errorf("updatable: meta section is %d bytes, want %d", len(meta), metaLen)
	}
	mode := binary.LittleEndian.Uint32(meta)
	layerM := binary.LittleEndian.Uint64(meta[4:])
	stride := binary.LittleEndian.Uint64(meta[12:])
	if mode != uint32(core.ModeRange) && mode != uint32(core.ModeMidpoint) {
		return Config{}, fmt.Errorf("updatable: invalid layer mode %d in snapshot meta", mode)
	}
	const maxI64 = uint64(1<<63 - 1)
	if layerM > maxI64 || stride > maxI64 {
		return Config{}, fmt.Errorf("updatable: snapshot meta field out of range")
	}
	if dead := binary.LittleEndian.Uint64(meta[28:]); dead != 0 {
		return Config{}, fmt.Errorf("updatable: view meta records %d tombstones: %w", dead, snapshot.ErrLegacy)
	}
	return Config{Layer: core.Config{
		Mode:         core.Mode(mode),
		M:            int(layerM),
		SampleStride: int(stride),
	}}, nil
}
