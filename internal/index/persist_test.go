package index

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// persistableBackends is the registry subset expected to implement the
// Persister capability.
var persistableBackends = []string{"IM", "IM+ST", "RS+ST", "RMI+ST"}

// TestRegistrySnapshotRoundTrip saves and loads every Persister-capable
// registry backend and property-tests bit-identical query results —
// including the RS- and RMI-hosted Shift-Tables, whose models reconstruct
// through the loaders this package registers.
func TestRegistrySnapshotRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 30_000, 5)
	for _, name := range persistableBackends {
		orig, err := Build(name, keys)
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		if _, ok := orig.(Persister); !ok {
			t.Fatalf("%s lost the Persister capability", name)
		}
		var buf bytes.Buffer
		if err := Save(&buf, orig); err != nil {
			t.Fatalf("saving %s: %v", name, err)
		}
		loaded, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		if loaded.Name() != orig.Name() || loaded.Len() != orig.Len() {
			t.Fatalf("%s restored as %s/%d", name, loaded.Name(), loaded.Len())
		}
		checkIdentical(t, name, orig, loaded, keys, 5_000)

		// The unknown-size path must behave identically.
		loaded2, err := Load[uint64](bytes.NewReader(buf.Bytes()), -1)
		if err != nil {
			t.Fatalf("loading %s with unknown size: %v", name, err)
		}
		checkIdentical(t, name+"/-1", orig, loaded2, keys, 500)
	}
}

// checkIdentical compares Find and FindBatch over hits, misses, and
// boundary queries.
func checkIdentical[K kv.Key](t *testing.T, label string, a, b Index[K], keys []K, probes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	qs := make([]K, 0, probes+4)
	qs = append(qs, 0, keys[0], keys[len(keys)-1], kv.MaxKey[K]())
	for i := 0; i < probes; i++ {
		if i%2 == 0 {
			qs = append(qs, keys[rng.Intn(len(keys))])
		} else {
			qs = append(qs, K(rng.Uint64())%(keys[len(keys)-1]+2))
		}
	}
	for _, q := range qs {
		if got, want := b.Find(q), a.Find(q); got != want {
			t.Fatalf("%s: loaded Find(%v) = %d, want %d", label, q, got, want)
		}
	}
	want := FindBatch(a, qs, nil)
	got := FindBatch(b, qs, nil)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("%s: loaded FindBatch[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func TestSaveRejectsNonPersistable(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 4_096, 5)
	ix, err := Build("B+tree", keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(Persister); ok {
		t.Skip("B+tree grew a Persister capability; update this test's subject")
	}
	if err := Save(&bytes.Buffer{}, ix); err == nil {
		t.Error("Save accepted a backend without the capability")
	}
}

func TestLoadRejectsUnknownKindAndWidth(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 4_096, 5)
	ix, err := Build("IM+ST", keys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.snap")
	if err := SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	// Loading 64-bit-keyed snapshot as a 32-bit index must fail (the kind
	// loader exists for uint32; the key section width check rejects it).
	if _, err := LoadFile[uint32](path); err == nil {
		t.Error("64-bit snapshot loaded as uint32 index")
	}
	// Unknown kind.
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, "no-such-kind")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Bytes(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Error("unknown snapshot kind accepted")
	}
}

// TestSnapshotFileRoundTrip drives SaveFile/LoadFile.
func TestSnapshotFileRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 20_000, 3)
	ix, err := Build("RS+ST", keys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rs.snap")
	if err := SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile[uint64](path)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "RS+ST/file", ix, loaded, keys, 3_000)
}
