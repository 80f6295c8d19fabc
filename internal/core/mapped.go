package core

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/mapped"
	"repro/internal/snapshot"
)

// This file is the one load path of the core snapshot kinds (DESIGN.md
// §12): a Table or ModelIndex opened over a container (snapshot.Open,
// over a mapping or a heap read) views the key section and the layer's
// drift array in place instead of copying it. Opening is O(1)
// in the key count — header and geometry validation only — which is
// what turns warm restart from a scan of the file into a handful of
// page touches.
//
// Trust: the O(n) invariants — keys sorted, every range-mode partition
// starting inside the keys, the model's full-sweep mean error — are
// checked exactly when the container is verified in full
// (snapshot.Mapped.Verified: VerifyAll ran). The heap entry points
// always verify, so a heap load stays eagerly checked. An unverified
// mapped open trusts the file
// to be a snapshot this repository wrote — appropriate for artifacts
// whose CRC was verified at fetch or publish time (the replica spool) —
// while remaining memory-safe against arbitrary corruption: every slice
// is bounds-derived from validated geometry, so hostile bytes can
// mis-answer queries but cannot fault.

// attachRegion gives a mapped structure its own region reference and
// schedules the release for when the structure becomes unreachable.
func attachRegion[T any](owner *T, region *mapped.Region) {
	if region == nil {
		return
	}
	region.Retain()
	runtime.AddCleanup(owner, func(r *mapped.Region) { r.Release() }, region)
}

// Mapped reports whether the table serves from a mapped snapshot region.
func (t *Table[K]) Mapped() bool { return t.region != nil }

// MappedBytes returns the size of the backing mapped region (0 when the
// table is heap-resident).
func (t *Table[K]) MappedBytes() int64 {
	if t.region == nil {
		return 0
	}
	return int64(t.region.Len())
}

// Region returns the backing mapped region, nil for heap tables. The
// table's reference keeps it alive; callers that outlive the table must
// Retain their own.
func (t *Table[K]) Region() *mapped.Region { return t.region }

// Mapped reports whether the index serves from a mapped snapshot region.
func (ix *ModelIndex[K]) Mapped() bool { return ix.region != nil }

// MappedBytes returns the size of the backing mapped region (0 when
// heap-resident).
func (ix *ModelIndex[K]) MappedBytes() int64 {
	if ix.region == nil {
		return 0
	}
	return int64(ix.region.Len())
}

// Region returns the backing mapped region, nil for heap indexes.
func (ix *ModelIndex[K]) Region() *mapped.Region { return ix.region }

// MapTableSnapshot opens a shift-table container in place: keys viewed
// from the key section, drift entries viewed from the layer section, model rebuilt from its spec (O(1) for the parameter-free
// families). The returned table retains the region; the caller may Close
// the Mapped handle afterwards.
func MapTableSnapshot[K kv.Key](m *snapshot.Mapped) (*Table[K], error) {
	if m.Kind() != SnapshotKindTable {
		return nil, fmt.Errorf("core: container holds %q, want %q", m.Kind(), SnapshotKindTable)
	}
	m.Rewind()
	t, err := MapTableSections[K](m)
	if err != nil {
		return nil, err
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// MapTableSections views the shift-table section triplet (keys, model,
// layer) from the container's current cursor — the embedded form other
// kinds persist through Table.PersistSnapshot (the updatable and
// concurrent containers carry one mid-stream). The v3 layer blob is
// viewed in place, and the table retains the region.
func MapTableSections[K kv.Key](m *snapshot.Mapped) (*Table[K], error) {
	keys, model, err := mapKeysAndModel[K](m)
	if err != nil {
		return nil, err
	}
	ls, err := m.Expect(secTableLayer)
	if err != nil {
		return nil, err
	}
	t, err := viewLayer(ls.Data, keys, model)
	if err != nil {
		return nil, fmt.Errorf("core: layer section: %w", err)
	}
	if m.Verified() {
		if err := t.checkBounds(); err != nil {
			return nil, err
		}
	}
	attachRegion(t, m.Region())
	t.region = m.Region()
	return t, nil
}

// MapModelIndexSnapshot opens a model-index container in place, keys
// viewed and the model rebuilt over them. A verified container gets the
// full-sweep mean error (Eq. 10) of NewModelIndex; an unverified open
// takes a strided-sample estimate so it stays sublinear — the cost model
// consumes a statistic either way, not a guarantee.
func MapModelIndexSnapshot[K kv.Key](m *snapshot.Mapped) (*ModelIndex[K], error) {
	if m.Kind() != SnapshotKindModelIndex {
		return nil, fmt.Errorf("core: container holds %q, want %q", m.Kind(), SnapshotKindModelIndex)
	}
	m.Rewind()
	keys, model, err := mapKeysAndModel[K](m)
	if err != nil {
		return nil, err
	}
	var ix *ModelIndex[K]
	if m.Verified() {
		if ix, err = NewModelIndex(keys, model); err != nil {
			return nil, err
		}
	} else {
		ix = &ModelIndex[K]{keys: keys, model: model, meanErr: sampledModelError(keys, model)}
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	attachRegion(ix, m.Region())
	ix.region = m.Region()
	return ix, nil
}

// mapKeysAndModel views the key section, checking its order when the
// container is verified, then decodes the model spec section (small — it
// is copied, not viewed) and rebuilds the model over the viewed keys.
func mapKeysAndModel[K kv.Key](m *snapshot.Mapped) ([]K, cdfmodel.Model[K], error) {
	ks, err := m.Expect(secTableKeys)
	if err != nil {
		return nil, nil, err
	}
	keys, err := snapshot.MapKeySection[K](ks)
	if err != nil {
		return nil, nil, err
	}
	if m.Verified() && !kv.IsSorted(keys) {
		return nil, nil, fmt.Errorf("core: snapshot keys are not sorted")
	}
	ms, err := m.Expect(secTableModel)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(ms.Data)) > maxModelSpecLen {
		return nil, nil, fmt.Errorf("core: model spec section %d bytes, cap is %d", len(ms.Data), maxModelSpecLen)
	}
	model, err := decodeModelSpec(ms.Data, keys)
	if err != nil {
		return nil, nil, err
	}
	return keys, model, nil
}

// viewLayer builds a Table whose drift array aliases data, which must be
// a v3 layer blob (writeLayer). Every header field is validated —
// including the key and model fingerprints that bind the layer to its
// data — and the blob's size must equal the geometry the header implies,
// byte for byte.
func viewLayer[K kv.Key](data []byte, keys []K, model cdfmodel.Model[K]) (*Table[K], error) {
	if len(data) < layerDataOff {
		return nil, fmt.Errorf("core: layer blob %d bytes, its header is %d", len(data), layerDataOff)
	}
	t, err := layerHeader(data, keys, model)
	if err != nil {
		return nil, err
	}
	width, err := layerWidth(binary.LittleEndian.Uint64(data[layerHeadLen:]), t.m)
	if err != nil {
		return nil, err
	}
	want := int64(layerDataOff) + driftEntries(t.mode, t.m)*int64(width)
	if int64(len(data)) != want {
		return nil, fmt.Errorf("core: layer blob is %d bytes, header geometry implies %d", len(data), want)
	}
	if t.drift, err = viewDrifts(data[layerDataOff:], width); err != nil {
		return nil, fmt.Errorf("core: drift view: %w", err)
	}
	return t, nil
}

// viewDrifts views packed drift entries of the given width in place
// (nothing for width 0, an empty layer).
func viewDrifts(b []byte, width uint8) (d driftArray, err error) {
	d.width = width
	switch width {
	case 1:
		d.w8, err = mapped.View[int8](b)
	case 2:
		d.w16, err = mapped.View[int16](b)
	case 4:
		d.w32, err = mapped.View[int32](b)
	case 8:
		d.w64, err = mapped.View[int64](b)
	}
	return d, err
}

// sampledModelError estimates the model's mean absolute drift from a
// strided sample of at most sampleErrProbes keys — the O(1) stand-in for
// the heap loader's full ModelError sweep. Duplicate-run rank handling
// matches ModelError on the sampled positions' first occurrences only,
// which is the same approximation the §3.4 sampled builds accept.
const sampleErrProbes = 4096

func sampledModelError[K kv.Key](keys []K, model cdfmodel.Model[K]) float64 {
	if len(keys) == 0 {
		return 0
	}
	stride := len(keys)/sampleErrProbes + 1
	var sum float64
	var probes int
	for i := 0; i < len(keys); i += stride {
		d := i - model.Predict(keys[i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
		probes++
	}
	return sum / float64(probes)
}
