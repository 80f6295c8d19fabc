package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// This file promotes the bare layer format (serialize.go) into full index
// snapshots (DESIGN.md §9): a Shift-Table or bare-model index persisted as
// one verified container — keys, model identity, and layer — so a restart
// warm-loads the index instead of rebuilding it from raw keys. The layer
// is embedded as one section in serialize.go's mappable v3 blob; its key
// and model fingerprints double as the binding between sections. The
// loaders are in mapped.go.

// Snapshot container kinds written by this package.
const (
	// SnapshotKindTable is a complete Shift-Table index: keys, model
	// spec, layer.
	SnapshotKindTable = "shift-table"
	// SnapshotKindModelIndex is a bare-model index: keys and model spec.
	SnapshotKindModelIndex = "model-index"
)

// Section ids of the shift-table and model-index kinds.
const (
	secTableKeys  = 1
	secTableModel = 2
	secTableLayer = 3
)

// maxModelSpecLen bounds the model section; model parameter blobs are a
// few words (an ε, a leaf count), never bulk data.
const maxModelSpecLen = 1 << 16

// SnapshotKind implements the index.Persister capability.
func (t *Table[K]) SnapshotKind() string { return SnapshotKindTable }

// PersistSnapshot writes the complete index — keys, model spec, layer —
// as the shift-table section sequence. The caller owns the container
// (header and checksum); see index.Save.
func (t *Table[K]) PersistSnapshot(sw *snapshot.Writer) error {
	if err := writeKeysAndModel(sw, t.keys, t.model); err != nil {
		return err
	}
	// Snapshots carry the mappable layer blob.
	lw, err := sw.SectionSized(secTableLayer, t.layerSize())
	if err != nil {
		return err
	}
	return t.writeLayer(lw)
}

// SnapshotKind implements the index.Persister capability.
func (ix *ModelIndex[K]) SnapshotKind() string { return SnapshotKindModelIndex }

// PersistSnapshot writes the bare-model index: keys and model spec.
func (ix *ModelIndex[K]) PersistSnapshot(sw *snapshot.Writer) error {
	return writeKeysAndModel(sw, ix.keys, ix.model)
}

// writeKeysAndModel writes the key and model-spec sections both kinds
// begin with.
func writeKeysAndModel[K kv.Key](sw *snapshot.Writer, keys []K, model cdfmodel.Model[K]) error {
	if err := snapshot.WriteKeySection(sw, secTableKeys, keys); err != nil {
		return err
	}
	spec, err := encodeModelSpec(model)
	if err != nil {
		return err
	}
	return sw.Bytes(secTableModel, spec)
}

// ModelParamser is the optional interface a model implements when its
// reconstruction needs parameters beyond the keys themselves (a radix
// spline's ε, an RMI's leaf count). Models without it — the cdfmodel
// families — are re-derived from the keys alone.
type ModelParamser interface {
	SnapshotParams() []byte
}

// encodeModelSpec renders a model's identity: family name, fingerprint,
// and the reconstruction parameters (empty when the keys suffice).
func encodeModelSpec[K kv.Key](m cdfmodel.Model[K]) ([]byte, error) {
	name := m.Name()
	if name == "" || len(name) > 255 {
		return nil, fmt.Errorf("core: model name %q not serializable", name)
	}
	var params []byte
	if p, ok := m.(ModelParamser); ok {
		params = p.SnapshotParams()
	}
	if len(params) > maxModelSpecLen/2 {
		return nil, fmt.Errorf("core: model %q parameter blob too large (%d bytes)", name, len(params))
	}
	out := make([]byte, 0, 4+len(name)+8+4+len(params))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint64(out, modelFingerprint(m))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(params)))
	out = append(out, params...)
	return out, nil
}

// decodeModelSpec reconstructs the model over the snapshot's keys and
// verifies the rebuilt model's fingerprint against the recorded one, so a
// reconstruction that drifted (changed defaults, wrong parameters) is
// rejected instead of silently mis-predicting.
func decodeModelSpec[K kv.Key](spec []byte, keys []K) (cdfmodel.Model[K], error) {
	if len(spec) < 4 {
		return nil, fmt.Errorf("core: model spec truncated")
	}
	nameLen := int(binary.LittleEndian.Uint32(spec))
	spec = spec[4:]
	if nameLen == 0 || nameLen > 255 || nameLen > len(spec) {
		return nil, fmt.Errorf("core: invalid model name length %d", nameLen)
	}
	name := string(spec[:nameLen])
	spec = spec[nameLen:]
	if len(spec) < 12 {
		return nil, fmt.Errorf("core: model spec for %q truncated", name)
	}
	fp := binary.LittleEndian.Uint64(spec)
	paramsLen := int(binary.LittleEndian.Uint32(spec[8:]))
	spec = spec[12:]
	if paramsLen != len(spec) {
		return nil, fmt.Errorf("core: model %q parameter length %d does not match the %d bytes present",
			name, paramsLen, len(spec))
	}
	model, err := buildModel(name, keys, spec)
	if err != nil {
		return nil, err
	}
	if got := modelFingerprint(model); got != fp {
		return nil, fmt.Errorf("core: reconstructed %q model does not match the persisted one (fingerprint %016x, want %016x)",
			name, got, fp)
	}
	return model, nil
}

// buildModel dispatches on the model family: the cdfmodel families are
// re-derived from the keys directly; anything else goes through the
// registered loaders (internal/index registers the RS and RMI families —
// loading a snapshot whose model lives outside cdfmodel requires linking
// the registry, which every front-end does).
func buildModel[K kv.Key](name string, keys []K, params []byte) (cdfmodel.Model[K], error) {
	switch name {
	case "IM", "Linear", "Cubic":
		if len(params) != 0 {
			return nil, fmt.Errorf("core: model %q takes no parameters, spec carries %d bytes", name, len(params))
		}
		switch name {
		case "IM":
			return cdfmodel.NewInterpolation(keys), nil
		case "Linear":
			return cdfmodel.NewLinear(keys), nil
		default:
			return cdfmodel.NewCubic(keys), nil
		}
	}
	if fn, ok := modelLoaders.Load(modelLoaderKey{name: name, width: kv.Width[K]()}); ok {
		return fn.(func([]K, []byte) (cdfmodel.Model[K], error))(keys, params)
	}
	return nil, fmt.Errorf("core: no loader registered for model family %q (link internal/index for RS/RMI)", name)
}

type modelLoaderKey struct {
	name  string
	width int
}

var modelLoaders sync.Map // modelLoaderKey -> func([]K, []byte) (cdfmodel.Model[K], error)

// RegisterModelLoader registers a reconstruction function for a model
// family outside cdfmodel, keyed by family name and key width. Called
// from package init functions (internal/index registers RS and RMI);
// later registrations for the same key replace earlier ones.
func RegisterModelLoader[K kv.Key](name string, fn func(keys []K, params []byte) (cdfmodel.Model[K], error)) {
	modelLoaders.Store(modelLoaderKey{name: name, width: kv.Width[K]()}, fn)
}
