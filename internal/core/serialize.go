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
)

// This file implements layer persistence. A Shift-Table is cheap to rebuild
// (one pass, §3.3) but at the paper's 200M-key scale that pass still reads
// ~1.6 GB; persisting the layer makes index startup I/O-bound instead.
// The file stores only the correction layer — the keys live in the caller's
// clustered storage and the model is re-derived or stored by the caller —
// plus fingerprints of both so a stale layer cannot be attached silently.

const (
	layerMagic   = 0x53485442 // "SHTB"
	layerVersion = 1
	// layerVersion2 is the mappable layout (DESIGN.md §12): instead of the
	// v1 split lo/hi arrays it stores range-mode drifts exactly as the
	// query path holds them — the fused interleaved [lo₀,hi₀,lo₁,hi₁,…]
	// array at the common packed width — followed by 8-byte-aligned
	// partition counts, so a loader over a page-aligned v2 snapshot
	// section can view both in place with zero copies. Written only
	// inside v2 snapshot containers and read only by MapTableWithKeys;
	// Load reads version 1, which WriteTo writes.
	layerVersion2 = 2
)

// Layer v2 body offsets, relative to the layer blob start. The 64-byte
// header is followed by one widths word (byte 0: the stored entry width;
// bytes 1–2, range mode only: the split lo/hi widths WriteTo would use),
// then the drift data, zero padding to an 8-byte boundary, and the
// int32 partition counts.
const layerV2DataOff = 8*8 + 8

// WriteTo serialises the layer (not the keys or the model) to w.
func (t *Table[K]) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countWriter{w: bw}
	head := []uint64{
		layerMagic,
		layerVersion,
		uint64(t.mode),
		uint64(t.n),
		uint64(t.m),
		boolU64(t.monotone),
		keysFingerprint(t.keys),
		modelFingerprint(t.model),
	}
	for _, v := range head {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	// The on-disk format (version 1) stores range-mode lo/hi as two split
	// arrays, each at its own narrowest width; de-interleave the in-memory
	// fused layout back to that shape so files round-trip byte-identically
	// across the layout change (DESIGN.md §8). The de-interleave streams in
	// fixed-size chunks — at M = N = 200M keys a materialised split copy
	// would transiently double the layer footprint.
	switch t.mode {
	case ModeRange:
		if err := writePairsHalf(cw, &t.pairs, t.m, t.loBits, false); err != nil {
			return cw.n, err
		}
		if err := writePairsHalf(cw, &t.pairs, t.m, t.hiBits, true); err != nil {
			return cw.n, err
		}
	default:
		if err := writeDrifts(cw, &t.shift, t.m); err != nil {
			return cw.n, err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, t.count); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// layerSizeV2 is the exact byte size writeLayerV2 will produce, so the
// snapshot writer can reserve the section (SectionSized) and the mapped
// loader can cross-check geometry before viewing anything.
func (t *Table[K]) layerSizeV2() int64 {
	var data int64
	switch t.mode {
	case ModeRange:
		data = 2 * int64(t.m) * int64(t.pairs.width)
	default:
		data = int64(t.m) * int64(t.shift.width)
	}
	return layerV2DataOff + data + pad8(data) + 4*int64(t.m)
}

// pad8 returns the zero-padding after n bytes of drift data so the int32
// counts that follow start 8-byte aligned (the data begins at the
// 8-aligned layerV2DataOff, so alignment is preserved end to end).
func pad8(n int64) int64 { return (8 - n%8) % 8 }

// writeLayerV2 serialises the layer in the mappable v2 shape: the same
// 64-byte header as v1 (version field 2), one widths word, then the
// drift data exactly as the query path holds it — fused interleaved
// pairs for range mode, the packed shift array for midpoint — zero
// padding to an 8-byte boundary, and the partition counts. No per-array
// width prefixes: all widths live in the widths word so every payload
// offset is computable from the header alone.
func (t *Table[K]) writeLayerV2(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var width, lo, hi uint8
	var data int64
	switch t.mode {
	case ModeRange:
		if t.pairs.len() != t.m {
			return fmt.Errorf("core: drift pair length %d, want %d", t.pairs.len(), t.m)
		}
		width, lo, hi = t.pairs.width, t.loBits, t.hiBits
		data = 2 * int64(t.m) * int64(width)
	default:
		if t.shift.len() != t.m {
			return fmt.Errorf("core: drift array length %d, want %d", t.shift.len(), t.m)
		}
		width = t.shift.width
		data = int64(t.m) * int64(width)
	}
	head := []uint64{
		layerMagic,
		layerVersion2,
		uint64(t.mode),
		uint64(t.n),
		uint64(t.m),
		boolU64(t.monotone),
		keysFingerprint(t.keys),
		modelFingerprint(t.model),
		uint64(width) | uint64(lo)<<8 | uint64(hi)<<16,
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var err error
	switch t.mode {
	case ModeRange:
		switch {
		case t.pairs.w8 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.pairs.w8)
		case t.pairs.w16 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.pairs.w16)
		case t.pairs.w32 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.pairs.w32)
		case t.pairs.w64 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.pairs.w64)
		}
	default:
		switch {
		case t.shift.w8 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.shift.w8)
		case t.shift.w16 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.shift.w16)
		case t.shift.w32 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.shift.w32)
		case t.shift.w64 != nil:
			err = binary.Write(bw, binary.LittleEndian, t.shift.w64)
		}
	}
	if err != nil {
		return err
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
// lo/hi widths (range mode only) a future v1 WriteTo would use.
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
		// widths (fusePairs); anything else cannot round-trip to v1.
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

// Load decodes a layer blob previously written with WriteTo (version 1,
// the split-array layout) and attaches it to the given keys and model.
// The keys and model must be the ones the layer was built over;
// fingerprint mismatches are rejected.
//
// The blob is untrusted: every header field is validated before it is
// used, each array's byte length is checked against the bytes that
// remain before it is allocated (so a 64-byte hostile header cannot
// demand terabytes), and the blob must end exactly where its geometry
// says — truncation or trailing bytes are descriptive errors, never a
// panic. Partition counts are checked eagerly (checkCounts).
func Load[K kv.Key](data []byte, keys []K, model cdfmodel.Model[K]) (*Table[K], error) {
	t, err := layerHeader(data, layerVersion, keys, model)
	if err != nil {
		return nil, err
	}
	body := data[layerHeadLen:]
	switch t.mode {
	case ModeRange:
		// Decode the split arrays of the file format, then fuse them into
		// the interleaved query-path layout, keeping the split widths for
		// the next WriteTo.
		var lo, hi driftArray
		if body, err = decodeDrifts(body, &lo, t.m); err != nil {
			return nil, fmt.Errorf("core: lo drift array: %w", err)
		}
		if body, err = decodeDrifts(body, &hi, t.m); err != nil {
			return nil, fmt.Errorf("core: hi drift array: %w", err)
		}
		if t.m > 0 {
			t.pairs = fusePairs(&lo, &hi)
		}
		t.loBits, t.hiBits = lo.width, hi.width
	default: // ModeMidpoint; anything else was rejected above
		if body, err = decodeDrifts(body, &t.shift, t.m); err != nil {
			return nil, fmt.Errorf("core: drift array: %w", err)
		}
	}
	if want := 4 * int64(t.m); int64(len(body)) != want {
		return nil, fmt.Errorf("core: %d bytes of partition counts, want %d", len(body), want)
	}
	t.count = decodeFixed[int32](body, t.m)
	if err := checkCounts(t.count, t.n); err != nil {
		return nil, err
	}
	return t, nil
}

// layerHeadLen is the size of the header both layer versions share.
const layerHeadLen = 8 * 8

// layerHeader validates the 64-byte header both layer versions share —
// magic, version, mode, key count, partition count, monotone flag, and
// the key and model fingerprints that bind the layer to its data — and
// returns the table shell it describes (no arrays yet).
func layerHeader[K kv.Key](data []byte, version uint64, keys []K, model cdfmodel.Model[K]) (*Table[K], error) {
	if len(data) < layerHeadLen {
		return nil, fmt.Errorf("core: layer blob is %d bytes, its header is %d", len(data), layerHeadLen)
	}
	var head [8]uint64
	for i := range head {
		head[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if head[0] != layerMagic {
		return nil, fmt.Errorf("core: not a Shift-Table layer blob")
	}
	if head[1] != version {
		return nil, fmt.Errorf("core: layer version %d, want %d", head[1], version)
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
// the key count so the drift-array reads that follow stay bounded by real
// input.
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

// writePairsHalf streams one half of the fused pair array — lo entries
// (hiHalf false) or hi entries (hiHalf true) — in the split on-disk shape:
// the width header, then the values packed at bits, de-interleaved through
// a fixed-size chunk buffer. Byte-identical to writeDrifts over the
// materialised split array.
func writePairsHalf(w io.Writer, d *driftPairs, m int, width uint8, hiHalf bool) error {
	if d.len() != m {
		return fmt.Errorf("core: drift pair length %d, want %d", d.len(), m)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(width)*8); err != nil {
		return err
	}
	const chunk = 8192
	val := func(k int) int {
		lo, hi := d.pair(k)
		if hiHalf {
			return hi
		}
		return lo
	}
	switch width {
	case 1:
		buf := make([]int8, 0, chunk)
		for k := 0; k < m; k++ {
			buf = append(buf, int8(val(k)))
			if len(buf) == chunk {
				if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return binary.Write(w, binary.LittleEndian, buf)
	case 2:
		buf := make([]int16, 0, chunk)
		for k := 0; k < m; k++ {
			buf = append(buf, int16(val(k)))
			if len(buf) == chunk {
				if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return binary.Write(w, binary.LittleEndian, buf)
	case 4:
		buf := make([]int32, 0, chunk)
		for k := 0; k < m; k++ {
			buf = append(buf, int32(val(k)))
			if len(buf) == chunk {
				if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return binary.Write(w, binary.LittleEndian, buf)
	default:
		buf := make([]int64, 0, chunk)
		for k := 0; k < m; k++ {
			buf = append(buf, int64(val(k)))
			if len(buf) == chunk {
				if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return binary.Write(w, binary.LittleEndian, buf)
	}
}

// writeDrifts stores the entry width then the packed array.
func writeDrifts(w io.Writer, d *driftArray, m int) error {
	if d.len() != m {
		return fmt.Errorf("core: drift array length %d, want %d", d.len(), m)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(d.entryBits())); err != nil {
		return err
	}
	switch {
	case d.w8 != nil:
		return binary.Write(w, binary.LittleEndian, d.w8)
	case d.w16 != nil:
		return binary.Write(w, binary.LittleEndian, d.w16)
	case d.w32 != nil:
		return binary.Write(w, binary.LittleEndian, d.w32)
	default:
		return binary.Write(w, binary.LittleEndian, d.w64)
	}
}

// decodeDrifts decodes one packed drift array from the front of b — the
// width header, then m entries at that width — and returns the bytes
// after it. The width is validated, and the entries' byte length checked
// against b, before anything is allocated.
func decodeDrifts(b []byte, d *driftArray, m int) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("drift width: %d bytes left, want 8", len(b))
	}
	bits := binary.LittleEndian.Uint64(b)
	b = b[8:]
	switch bits {
	case 0:
		// An empty table packs to width 0; a populated layer never does.
		if m != 0 {
			return nil, fmt.Errorf("invalid drift entry width 0 for %d partitions", m)
		}
		d.width = 0
		return b, nil
	case 8, 16, 32, 64:
		if m == 0 {
			return nil, fmt.Errorf("drift entry width %d for an empty layer", bits)
		}
	default:
		return nil, fmt.Errorf("invalid drift entry width %d", bits)
	}
	width := int(bits / 8)
	if need := int64(m) * int64(width); need > int64(len(b)) {
		return nil, fmt.Errorf("%d drift entries need %d bytes, %d left", m, need, len(b))
	}
	d.width = uint8(width)
	switch width {
	case 1:
		d.w8 = decodeFixed[int8](b, m)
	case 2:
		d.w16 = decodeFixed[int16](b, m)
	case 4:
		d.w32 = decodeFixed[int32](b, m)
	default:
		d.w64 = decodeFixed[int64](b, m)
	}
	return b[m*width:], nil
}

// decodeFixed decodes n little-endian values of T's width from b, which
// the caller has checked holds at least that many bytes.
func decodeFixed[T int8 | int16 | int32 | int64](b []byte, n int) []T {
	out := make([]T, n)
	switch any(out).(type) {
	case []int8:
		for i := range out {
			out[i] = T(int8(b[i]))
		}
	case []int16:
		for i := range out {
			out[i] = T(int16(binary.LittleEndian.Uint16(b[2*i:])))
		}
	case []int32:
		for i := range out {
			out[i] = T(int32(binary.LittleEndian.Uint32(b[4*i:])))
		}
	default:
		for i := range out {
			out[i] = T(int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return out
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

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
