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
// natively by core.Table and core.ModelIndex, and by concurrent.Index;
// probe with a type assertion like the other capabilities.
type Persister interface {
	// SnapshotKind names the section layout, e.g. "shift-table".
	SnapshotKind() string
	// PersistSnapshot writes the backend's sections. The caller owns the
	// container header and checksum (see Save).
	PersistSnapshot(w *snapshot.Writer) error
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
// loadable by both the heap and the mapped entry points.
func SaveFile[K kv.Key](path string, ix Index[K]) error {
	p, ok := ix.(Persister)
	if !ok {
		return fmt.Errorf("index: %s does not implement the Persister capability", ix.Name())
	}
	return snapshot.SaveFile(path, p.SnapshotKind(), p.PersistSnapshot)
}

// Load reads one snapshot container onto the heap and restores the index
// through the loader registered for its kind. total is the input size in
// bytes (-1 to read to EOF). Every checksum is verified, and the loader
// runs its O(n) checks, before the index is returned.
func Load[K kv.Key](r io.Reader, total int64) (Index[K], error) {
	m, err := snapshot.Read(r, total)
	if err != nil {
		return nil, err
	}
	return dispatch[K](m)
}

// LoadFile restores an index from a snapshot file written by SaveFile,
// verified in full like Load.
func LoadFile[K kv.Key](path string) (Index[K], error) {
	m, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := dispatch[K](m)
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	return ix, nil
}

// LoadFileMapped restores an index by mapping the snapshot: the v2
// container is viewed in place, so warm start costs O(sections) rather
// than a read of the file. A mapped open trusts the container
// structurally and defers payload CRCs (see core's mapped loaders);
// LoadFile keeps the eager full verification.
func LoadFileMapped[K kv.Key](path string) (Index[K], error) {
	m, err := snapshot.MapFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	ix, err := dispatch[K](m)
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	return ix, nil
}

// dispatch restores an index through the loader registered for the
// container's kind and key width.
func dispatch[K kv.Key](m *snapshot.Mapped) (Index[K], error) {
	fn, ok := loaders.Load(loaderKey{kind: m.Kind(), width: kv.Width[K]()})
	if !ok {
		return nil, fmt.Errorf("index: no loader registered for snapshot kind %q (%d-byte keys)",
			m.Kind(), kv.Width[K]())
	}
	return fn.(func(*snapshot.Mapped) (Index[K], error))(m)
}

type loaderKey struct {
	kind  string
	width int
}

var loaders sync.Map // loaderKey -> func(*snapshot.Mapped) (Index[K], error)

// RegisterLoader registers the restore function for a snapshot kind,
// keyed by kind and key width. Called from package init functions (this
// package registers the core kinds; internal/concurrent registers its
// own); later registrations for the
// same key replace earlier ones. The loader reads an opened container
// and runs its O(n) checks exactly when the container is verified.
func RegisterLoader[K kv.Key](kind string, fn func(*snapshot.Mapped) (Index[K], error)) {
	loaders.Store(loaderKey{kind: kind, width: kv.Width[K]()}, fn)
}

func init() {
	registerCoreLoaders[uint64]()
	registerCoreLoaders[uint32]()
}

// registerCoreLoaders wires the core kinds and the out-of-package model
// families for one key width.
func registerCoreLoaders[K kv.Key]() {
	RegisterLoader[K](core.SnapshotKindTable, func(m *snapshot.Mapped) (Index[K], error) {
		t, err := core.MapTableSnapshot[K](m)
		if err != nil {
			return nil, err
		}
		// Wrap like the registry's builders do, so a loaded IM+ST reports
		// the Table 2 footprint convention (layer plus host model).
		return shiftIndex[K]{t}, nil
	})
	RegisterLoader[K](core.SnapshotKindModelIndex, func(m *snapshot.Mapped) (Index[K], error) {
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
