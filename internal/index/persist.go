package index

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/radixspline"
	"repro/internal/rmi"
	"repro/internal/snapshot"
)

// This file is the registry's persistence surface (DESIGN.md §9): the
// Persister capability backends implement, the container-level Save/Load
// entry points that dispatch on the recorded backend kind, and — because
// this package is the composition root that links every backend — the
// model-loader registrations that let core reconstruct RS- and RMI-hosted
// models from a snapshot.

// Persister is the optional persistence capability: a backend that can
// write its complete state (keys included) as snapshot sections, keyed by
// a kind string a registered loader restores it from. Implemented
// natively by core.Table, core.ModelIndex and router.Router; probe with a
// type assertion like the other capabilities.
type Persister interface {
	// SnapshotKind names the section layout, e.g. "shift-table".
	SnapshotKind() string
	// PersistSnapshot writes the backend's sections. The caller owns the
	// container header and checksum (see Save).
	PersistSnapshot(w *snapshot.Writer) error
}

// Persistable reports whether ix can be saved with Save.
func Persistable[K kv.Key](ix Index[K]) bool {
	_, ok := ix.(Persister)
	return ok
}

// Save writes ix as one verified snapshot container.
func Save[K kv.Key](w io.Writer, ix Index[K]) error {
	p, ok := ix.(Persister)
	if !ok {
		return fmt.Errorf("index: %s does not implement the Persister capability", ix.Name())
	}
	sw, err := snapshot.NewWriter(w, p.SnapshotKind())
	if err != nil {
		return err
	}
	if err := p.PersistSnapshot(sw); err != nil {
		return err
	}
	return sw.Close()
}

// SaveFile writes ix crash-safely to path (temp file + atomic rename) in
// the mappable v2 layout (page-aligned sections, per-section CRCs),
// loadable by both the streaming and mapped paths.
func SaveFile[K kv.Key](path string, ix Index[K]) error {
	p, ok := ix.(Persister)
	if !ok {
		return fmt.Errorf("index: %s does not implement the Persister capability", ix.Name())
	}
	return snapshot.SaveFile(path, p.SnapshotKind(), p.PersistSnapshot)
}

// Load reads one snapshot container and restores the index through the
// loader registered for its kind. total is the input size in bytes (-1
// when unknown; a known size lets the reader bound section lengths up
// front). The container checksum is verified before the index is
// returned.
func Load[K kv.Key](r io.Reader, total int64) (Index[K], error) {
	var ix Index[K]
	err := snapshot.Load(r, total, func(sr *snapshot.Reader) error {
		var lerr error
		ix, lerr = dispatchLoad[K](sr)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// LoadFile restores an index from a snapshot file written by SaveFile.
func LoadFile[K kv.Key](path string) (Index[K], error) {
	var ix Index[K]
	err := snapshot.LoadFile(path, func(sr *snapshot.Reader) error {
		var lerr error
		ix, lerr = dispatchLoad[K](sr)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// LoadFileMapped restores an index by mapping the snapshot in place when
// it can — a v2 container, a registered mapped loader for its kind, and
// a layout the host can view — and falls back to the streaming heap load
// otherwise (a v1 snapshot from an earlier build always does). The
// returned flag reports which path served: callers print it (shifttool)
// or export it (/statusz) so "warm restart was fast" is attributable. A
// mapped open trusts the container structurally and defers payload CRCs
// (see core's mapped loaders); the heap fallback keeps the eager full
// verification.
func LoadFileMapped[K kv.Key](path string) (Index[K], bool, error) {
	m, err := snapshot.MapFile(path)
	if err != nil {
		ix, herr := LoadFile[K](path)
		if herr != nil {
			return nil, false, herr
		}
		return ix, false, nil
	}
	defer m.Close()
	fn, ok := mapLoaders.Load(snapLoaderKey{kind: m.Kind(), width: kv.Width[K]()})
	if !ok {
		ix, herr := LoadFile[K](path)
		return ix, false, herr
	}
	ix, err := fn.(func(*snapshot.Mapped) (Index[K], error))(m)
	if err != nil {
		// A mapped parse rejection (corrupt geometry, misaligned view) is
		// not necessarily fatal to the file: the streaming loader verifies
		// end to end and gives the authoritative answer.
		ix, herr := LoadFile[K](path)
		if herr != nil {
			return nil, false, herr
		}
		return ix, false, nil
	}
	return ix, true, nil
}

// NewShiftIndex wraps a built (or snapshot-restored) Shift-Table in the
// registry's IM+ST/RS+ST backend shape, whose SizeBytes reports the
// Table 2 convention (layer plus host model). internal/router restores
// its Shift-Table shards through this.
func NewShiftIndex[K kv.Key](t *core.Table[K]) Index[K] {
	return shiftIndex[K]{t}
}

func dispatchLoad[K kv.Key](sr *snapshot.Reader) (Index[K], error) {
	fn, ok := snapLoaders.Load(snapLoaderKey{kind: sr.Kind(), width: kv.Width[K]()})
	if !ok {
		return nil, fmt.Errorf("index: no loader registered for snapshot kind %q (%d-byte keys)",
			sr.Kind(), kv.Width[K]())
	}
	return fn.(func(*snapshot.Reader) (Index[K], error))(sr)
}

type snapLoaderKey struct {
	kind  string
	width int
}

var snapLoaders sync.Map // snapLoaderKey -> func(*snapshot.Reader) (Index[K], error)
var mapLoaders sync.Map  // snapLoaderKey -> func(*snapshot.Mapped) (Index[K], error)

// RegisterSnapshotLoader registers the restore function for a snapshot
// kind, keyed by kind and key width. Called from package init functions
// (this package registers the core kinds; internal/router registers its
// own); later registrations for the same key replace earlier ones.
func RegisterSnapshotLoader[K kv.Key](kind string, fn func(*snapshot.Reader) (Index[K], error)) {
	snapLoaders.Store(snapLoaderKey{kind: kind, width: kv.Width[K]()}, fn)
}

// RegisterMappedLoader registers the zero-copy restore function for a
// snapshot kind; kinds without one fall back to the streaming loader in
// LoadFileMapped.
func RegisterMappedLoader[K kv.Key](kind string, fn func(*snapshot.Mapped) (Index[K], error)) {
	mapLoaders.Store(snapLoaderKey{kind: kind, width: kv.Width[K]()}, fn)
}

func init() {
	registerCoreLoaders[uint64]()
	registerCoreLoaders[uint32]()
}

// registerCoreLoaders wires the core kinds and the out-of-package model
// families for one key width.
func registerCoreLoaders[K kv.Key]() {
	RegisterSnapshotLoader[K](core.SnapshotKindTable, func(sr *snapshot.Reader) (Index[K], error) {
		t, err := core.LoadTableSnapshot[K](sr)
		if err != nil {
			return nil, err
		}
		// Wrap like the registry's builders do, so a loaded IM+ST reports
		// the Table 2 footprint convention (layer plus host model).
		return shiftIndex[K]{t}, nil
	})
	RegisterSnapshotLoader[K](core.SnapshotKindModelIndex, func(sr *snapshot.Reader) (Index[K], error) {
		return core.LoadModelIndexSnapshot[K](sr)
	})
	RegisterMappedLoader[K](core.SnapshotKindTable, func(m *snapshot.Mapped) (Index[K], error) {
		t, err := core.MapTableSnapshot[K](m)
		if err != nil {
			return nil, err
		}
		return shiftIndex[K]{t}, nil
	})
	RegisterMappedLoader[K](core.SnapshotKindModelIndex, func(m *snapshot.Mapped) (Index[K], error) {
		return core.MapModelIndexSnapshot[K](m)
	})
	core.RegisterModelLoader[K]("RS", func(keys []K, params []byte) (cdfmodel.Model[K], error) {
		if len(params) != 8 {
			return nil, fmt.Errorf("index: RS model spec wants 8 parameter bytes, got %d", len(params))
		}
		eps := binary.LittleEndian.Uint64(params)
		if eps == 0 || eps > uint64(len(keys))+1 {
			return nil, fmt.Errorf("index: RS model spec ε=%d is not credible for %d keys", eps, len(keys))
		}
		return radixspline.New(keys, radixspline.Config{MaxError: int(eps)})
	})
	core.RegisterModelLoader[K]("RMI", func(keys []K, params []byte) (cdfmodel.Model[K], error) {
		if len(params) != 16 {
			return nil, fmt.Errorf("index: RMI model spec wants 16 parameter bytes, got %d", len(params))
		}
		leaves := binary.LittleEndian.Uint64(params)
		root := binary.LittleEndian.Uint64(params[8:])
		if leaves == 0 || leaves > uint64(len(keys))+1 {
			return nil, fmt.Errorf("index: RMI model spec leaves=%d is not credible for %d keys", leaves, len(keys))
		}
		if root > uint64(rmi.RootCubic) {
			return nil, fmt.Errorf("index: RMI model spec has unknown root kind %d", root)
		}
		return rmi.New(keys, rmi.Config{Leaves: int(leaves), Root: rmi.RootKind(root)})
	})
}
