package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// This file implements layer persistence. A Shift-Table is cheap to rebuild
// (one pass, §3.3) but at the paper's 200M-key scale that pass still reads
// ~1.6 GB; persisting the layer makes index startup I/O-bound instead.
// The blob stores only the correction layer — the keys live in their own
// snapshot section and the model is re-derived from its spec — plus
// fingerprints of both so a stale layer cannot be attached silently.

const (
	layerMagic = 0x53485442 // "SHTB"
	// layerVersion2 is the mappable layout (DESIGN.md §12): range-mode
	// drifts stored exactly as the query path holds them — the fused
	// interleaved [lo₀,hi₀,lo₁,hi₁,…] array at the common packed width —
	// followed by 8-byte-aligned partition counts, so a loader over a
	// page-aligned v2 snapshot section views both in place with zero
	// copies. Version 1, the split lo/hi arrays earlier builds wrote, is
	// refused with snapshot.ErrLegacy; internal/migrate converts it.
	layerVersion2 = 2
)

// Layer v2 body offsets, relative to the layer blob start. The 64-byte
// header is followed by one widths word (byte 0: the stored entry width;
// bytes 1–2, range mode only: the independent narrowest widths of the lo
// and hi halves, §3.9's per-array widths), then the drift data, zero
// padding to an 8-byte boundary, and the int32 partition counts.
const layerV2DataOff = 8*8 + 8

// layerSizeV2 is the exact byte size writeLayerV2 will produce, so the
// snapshot writer can reserve the section (SectionSized) and the mapped
// loader can cross-check geometry before viewing anything.
func (t *Table[K]) layerSizeV2() int64 {
	data := int64(t.drift.sizeBytes())
	return layerV2DataOff + data + pad8(data) + 4*int64(t.m)
}

// pad8 returns the zero-padding after n bytes of drift data so the int32
// counts that follow start 8-byte aligned (the data begins at the
// 8-aligned layerV2DataOff, so alignment is preserved end to end).
func pad8(n int64) int64 { return (8 - n%8) % 8 }

// writeLayerV2 serialises the layer in the mappable v2 shape: the 64-byte
// header (version field 2), one widths word, then the
// drift data exactly as the query path holds it — fused interleaved
// pairs for range mode, the packed shift array for midpoint — zero
// padding to an 8-byte boundary, and the partition counts. No per-array
// width prefixes: all widths live in the widths word so every payload
// offset is computable from the header alone.
func (t *Table[K]) writeLayerV2(w io.Writer) error {
	if want := int64(t.m) * entriesPerPartition(t.mode); int64(t.drift.len()) != want {
		return fmt.Errorf("core: drift array length %d, want %d", t.drift.len(), want)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	data := int64(t.drift.sizeBytes())
	head := []uint64{
		layerMagic,
		layerVersion2,
		uint64(t.mode),
		uint64(t.n),
		uint64(t.m),
		boolU64(t.monotone),
		keysFingerprint(t.keys),
		modelFingerprint(t.model),
		uint64(t.drift.width) | uint64(t.loBits)<<8 | uint64(t.hiBits)<<16,
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Exactly one drift slice is non-nil (none for an empty layer); the
	// nil ones write nothing.
	for _, d := range []any{t.drift.w8, t.drift.w16, t.drift.w32, t.drift.w64} {
		if err := binary.Write(bw, binary.LittleEndian, d); err != nil {
			return err
		}
	}
	var zeros [8]byte
	if _, err := bw.Write(zeros[:pad8(data)]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, t.count); err != nil {
		return err
	}
	return bw.Flush()
}

// layerWidths unpacks and validates the v2 widths word against the mode
// and partition count. Returns the stored entry width plus the split
// lo/hi widths (range mode only).
func layerWidths(word uint64, mode Mode, m int) (width, lo, hi uint8, err error) {
	if word>>24 != 0 {
		return 0, 0, 0, fmt.Errorf("core: layer widths word %#x has reserved bytes set", word)
	}
	width, lo, hi = uint8(word), uint8(word>>8), uint8(word>>16)
	okWidth := func(w uint8) bool { return w == 0 || w == 1 || w == 2 || w == 4 || w == 8 }
	if !okWidth(width) || !okWidth(lo) || !okWidth(hi) {
		return 0, 0, 0, fmt.Errorf("core: invalid layer entry widths %d/%d/%d", width, lo, hi)
	}
	if m == 0 {
		if width != 0 || lo != 0 || hi != 0 {
			return 0, 0, 0, fmt.Errorf("core: nonzero entry widths %d/%d/%d for an empty layer", width, lo, hi)
		}
		return 0, 0, 0, nil
	}
	if width == 0 {
		return 0, 0, 0, fmt.Errorf("core: entry width 0 for %d partitions", m)
	}
	if mode == ModeRange {
		// The fused array packs both halves at the wider of the two split
		// widths (Build); no writer records anything else.
		want := lo
		if hi > want {
			want = hi
		}
		if lo == 0 || hi == 0 || width != want {
			return 0, 0, 0, fmt.Errorf("core: range-mode widths %d/%d/%d are inconsistent", width, lo, hi)
		}
	} else if lo != 0 || hi != 0 {
		return 0, 0, 0, fmt.Errorf("core: split widths %d/%d set for midpoint mode", lo, hi)
	}
	return width, lo, hi, nil
}

// maxLayerFactor bounds M relative to N in loaded layer files. Builds
// default to M = N and the paper's reduced configurations use M = N/X, so
// a header claiming a layer orders of magnitude larger than its key set
// is corrupt (or hostile), not a configuration this repository produces.
const maxLayerFactor = 64

// layerHeadLen is the size of the layer blob header.
const layerHeadLen = 8 * 8

// layerHeader validates the 64-byte layer header — magic, version, mode,
// key count, partition count, monotone flag, and the key and model
// fingerprints that bind the layer to its data — and returns the table
// shell it describes (no arrays yet). data holds at least the header.
func layerHeader[K kv.Key](data []byte, keys []K, model cdfmodel.Model[K]) (*Table[K], error) {
	var head [8]uint64
	for i := range head {
		head[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if head[0] != layerMagic {
		return nil, fmt.Errorf("core: not a Shift-Table layer blob")
	}
	switch head[1] {
	case layerVersion2:
	case 1:
		return nil, fmt.Errorf("core: split-array v1 layer blob: %w", snapshot.ErrLegacy)
	default:
		return nil, fmt.Errorf("core: layer version %d, want %d", head[1], layerVersion2)
	}
	// Validate every remaining header field before using it: mode drives a
	// switch, n and m size the arrays, monotone drives the query path.
	if head[2] != uint64(ModeRange) && head[2] != uint64(ModeMidpoint) {
		return nil, fmt.Errorf("core: invalid mode %d in layer header", head[2])
	}
	if head[3] != uint64(len(keys)) {
		return nil, fmt.Errorf("core: layer built over %d keys, got %d", head[3], len(keys))
	}
	n := len(keys)
	if err := checkLayerM(head[4], n); err != nil {
		return nil, err
	}
	if head[5] > 1 {
		return nil, fmt.Errorf("core: invalid monotone flag %d in layer header", head[5])
	}
	if got := keysFingerprint(keys); got != head[6] {
		return nil, fmt.Errorf("core: key fingerprint mismatch (layer is stale or for other data)")
	}
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if got := modelFingerprint(model); got != head[7] {
		return nil, fmt.Errorf("core: model mismatch (layer was built over %q-class model)", model.Name())
	}
	return &Table[K]{
		keys:      keys,
		model:     model,
		mode:      Mode(head[2]),
		n:         n,
		m:         int(head[4]),
		monotone:  head[5] != 0,
		scratch:   new(sync.Pool),
		buildPool: new(sync.Pool),
	}, nil
}

// checkLayerM validates the partition-count header field: non-negative
// when converted, zero exactly for an empty table, and sane relative to
// the key count.
func checkLayerM(raw uint64, n int) error {
	if n == 0 {
		if raw != 0 {
			return fmt.Errorf("core: layer header claims %d partitions over 0 keys", raw)
		}
		return nil
	}
	if raw == 0 {
		return fmt.Errorf("core: layer header claims 0 partitions over %d keys", n)
	}
	limit := uint64(n) * maxLayerFactor
	if limit/maxLayerFactor != uint64(n) || limit > uint64(math.MaxInt32)*maxLayerFactor {
		limit = uint64(math.MaxInt32) * maxLayerFactor
	}
	if raw > limit {
		return fmt.Errorf("core: layer header claims %d partitions over %d keys (limit %d)", raw, n, limit)
	}
	return nil
}

// checkCounts validates partition cardinalities: non-negative, and their
// sum never exceeds the key count (sampled builds record fewer).
func checkCounts(counts []int32, n int) error {
	var sum int64
	for k, c := range counts {
		if c < 0 {
			return fmt.Errorf("core: negative cardinality %d for partition %d", c, k)
		}
		sum += int64(c)
		if sum > int64(n) {
			return fmt.Errorf("core: partition cardinalities sum past the %d indexed keys", n)
		}
	}
	return nil
}

// keysFingerprint hashes a structural sample of the keys (size, endpoints,
// and a strided sample) — cheap, order-sensitive, and strong enough to
// catch attaching a layer to the wrong dataset.
func keysFingerprint[K kv.Key](keys []K) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(keys)))
	if len(keys) == 0 {
		return h
	}
	stride := len(keys)/64 + 1
	for i := 0; i < len(keys); i += stride {
		mix(uint64(keys[i]))
	}
	mix(uint64(keys[len(keys)-1]))
	return h
}

// modelFingerprint identifies the model family and a probe of its
// predictions, so a layer built over IM cannot be attached to an RS model.
func modelFingerprint[K kv.Key](m cdfmodel.Model[K]) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range m.Name() {
		h ^= uint64(c)
		h *= 1099511628211
	}
	probe := ^K(0)
	for i := 0; i < 8; i++ {
		h ^= uint64(m.Predict(probe / K(i+1)))
		h *= 1099511628211
	}
	return h
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
