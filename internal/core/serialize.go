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
	// layerVersion3 is the mappable layout (DESIGN.md §12): the drift
	// entries stored exactly as the query path holds them — range mode's
	// M+1 lower bounds or midpoint mode's M shifts, at the packed width —
	// so a loader over a page-aligned snapshot section views them in
	// place with zero copies. Versions 1 (split lo/hi arrays and counts)
	// and 2 (interleaved <lo, hi> pairs and counts), which earlier builds
	// wrote, are refused with snapshot.ErrLegacy; internal/migrate
	// converts them.
	layerVersion3 = 3
)

// Layer v3 body offsets, relative to the layer blob start. The 64-byte
// header is followed by one widths word (byte 0: the entry width; the
// other bytes are zero), then the drift entries, which end the blob.
const layerDataOff = 8*8 + 8

// layerSize is the exact byte size writeLayer will produce, so the
// snapshot writer can reserve the section (SectionSized) and the mapped
// loader can cross-check geometry before viewing anything.
func (t *Table[K]) layerSize() int64 {
	return layerDataOff + int64(t.drift.sizeBytes())
}

// writeLayer serialises the layer in the mappable v3 shape: the 64-byte
// header (version field 3), one widths word, then the drift entries
// exactly as the query path holds them. The width lives in the widths
// word, so every payload offset is computable from the header alone.
func (t *Table[K]) writeLayer(w io.Writer) error {
	if want := driftEntries(t.mode, t.m); int64(t.drift.len()) != want {
		return fmt.Errorf("core: drift array length %d, want %d", t.drift.len(), want)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	head := []uint64{
		layerMagic,
		layerVersion3,
		uint64(t.mode),
		uint64(t.n),
		uint64(t.m),
		boolU64(t.monotone),
		keysFingerprint(t.keys),
		modelFingerprint(t.model),
		uint64(t.drift.width),
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
	return bw.Flush()
}

// layerWidth unpacks and validates the widths word against the partition
// count and returns the entry width.
func layerWidth(word uint64, m int) (uint8, error) {
	width := uint8(word)
	if word>>8 != 0 {
		return 0, fmt.Errorf("core: layer widths word %#x has reserved bytes set", word)
	}
	if width != 0 && width != 1 && width != 2 && width != 4 && width != 8 {
		return 0, fmt.Errorf("core: invalid layer entry width %d", width)
	}
	if (width == 0) != (m == 0) {
		return 0, fmt.Errorf("core: entry width %d for %d partitions", width, m)
	}
	return width, nil
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
	case layerVersion3:
	case 1, 2:
		return nil, fmt.Errorf("core: v%d layer blob with partition counts: %w", head[1], snapshot.ErrLegacy)
	default:
		return nil, fmt.Errorf("core: layer version %d, want %d", head[1], layerVersion3)
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
		keys:     keys,
		model:    model,
		mode:     Mode(head[2]),
		n:        n,
		m:        int(head[4]),
		monotone: head[5] != 0,
		scratch:  new(sync.Pool),
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

// checkBounds validates a range layer's lower bounds, the O(M) check a
// verified load runs: entry M is 0, and every partition's first position
// lo[k] + pmax(k) lies in [0, N] (its first key, or N past the last).
func (t *Table[K]) checkBounds() error {
	if t.mode != ModeRange || t.m == 0 {
		return nil
	}
	if last := t.drift.get(t.m); last != 0 {
		return fmt.Errorf("core: the layer's closing entry is %d, want 0", last)
	}
	for k := 0; k < t.m; k++ {
		if first := int64(t.drift.get(k)) + t.pmax(k); first < 0 || first > int64(t.n) {
			return fmt.Errorf("core: partition %d starts at %d, outside the %d keys", k, first, t.n)
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
