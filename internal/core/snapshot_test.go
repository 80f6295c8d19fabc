package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// saveTable renders a table as a full snapshot container.
func saveTable[K kv.Key](t *testing.T, tab *Table[K]) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, tab.SnapshotKind())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.PersistSnapshot(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadTable is the heap load: read, verify every checksum, then the
// shift-table loader with its O(n) checks.
func loadTable[K kv.Key](raw []byte) (*Table[K], error) {
	m, err := snapshot.Read(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, err
	}
	return MapTableSnapshot[K](m)
}

// TestTableSnapshotRoundTrip: a snapshot restores a table that answers
// every query identically — keys, model and layer all come from the file.
func TestTableSnapshotRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 30_000, 5)
	for _, mk := range []func() cdfmodel.Model[uint64]{
		func() cdfmodel.Model[uint64] { return cdfmodel.NewInterpolation(keys) },
		func() cdfmodel.Model[uint64] { return cdfmodel.NewLinear(keys) },
		func() cdfmodel.Model[uint64] { return cdfmodel.NewCubic(keys) },
	} {
		model := mk()
		for _, cfg := range []Config{
			{Mode: ModeRange},
			{Mode: ModeMidpoint},
			{Mode: ModeRange, M: 999},
		} {
			orig, err := Build(keys, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw := saveTable(t, orig)
			loaded, err := loadTable[uint64](raw)
			if err != nil {
				t.Fatalf("%s/%v: %v", model.Name(), cfg.Mode, err)
			}
			if loaded.Len() != orig.Len() || loaded.M() != orig.M() || loaded.Mode() != orig.Mode() {
				t.Fatal("metadata mismatch after snapshot round trip")
			}
			if loaded.Model().Name() != model.Name() {
				t.Fatalf("model %q restored as %q", model.Name(), loaded.Model().Name())
			}
			rng := rand.New(rand.NewSource(9))
			qs := make([]uint64, 2000)
			for i := range qs {
				qs[i] = rng.Uint64() % (keys[len(keys)-1] + 3)
			}
			for _, q := range qs {
				if got, want := loaded.Find(q), orig.Find(q); got != want {
					t.Fatalf("%s/%v: loaded Find(%d) = %d, want %d", model.Name(), cfg.Mode, q, got, want)
				}
			}
			// Batch path over the restored table too.
			want := orig.FindBatch(qs, nil)
			got := loaded.FindBatch(qs, nil)
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("loaded FindBatch[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		}
	}
}

// TestSnapshotDetectsEveryByteFlip: the container checksum (or a
// structural check before it) must catch any single corrupted byte —
// including ones in the key data, which the bare layer format could never
// see.
func TestSnapshotDetectsEveryByteFlip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 64, 600, 3)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw := saveTable(t, tab)
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x20
		if _, err := loadTable[uint64](bad); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", i, len(raw))
		}
	}
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := loadTable[uint64](raw[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestModelIndexSnapshotRoundTrip covers the bare-model kind.
func TestModelIndexSnapshotRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.LogN, 64, 20_000, 7)
	orig, err := NewModelIndex(keys, cdfmodel.NewInterpolation(keys))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, orig.SnapshotKind())
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.PersistSnapshot(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.Read(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := MapModelIndexSnapshot[uint64](m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		q := rng.Uint64() % (keys[len(keys)-1] + 3)
		if got, want := loaded.Find(q), orig.Find(q); got != want {
			t.Fatalf("loaded Find(%d) = %d, want %d", q, got, want)
		}
	}
	if loaded.MeanAbsError() != orig.MeanAbsError() {
		t.Error("mean model error not reproduced")
	}
}

// TestSnapshotEmptyTable: the n=0 table round-trips (the pre-snapshot
// loader rejected the width-0 drift arrays an empty table writes).
func TestSnapshotEmptyTable(t *testing.T) {
	for _, mode := range []Mode{ModeRange, ModeMidpoint} {
		tab, err := Build(nil, cdfmodel.NewInterpolation[uint64](nil), Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// Bare layer blob.
		loaded, err := viewLayer(layerBlob(t, tab), nil, cdfmodel.NewInterpolation[uint64](nil))
		if err != nil {
			t.Fatalf("empty %v layer round trip: %v", mode, err)
		}
		if loaded.Find(42) != 0 {
			t.Error("empty table Find != 0")
		}
		// Full snapshot container.
		raw := saveTable(t, tab)
		if _, err := loadTable[uint64](raw); err != nil {
			t.Fatalf("empty %v snapshot round trip: %v", mode, err)
		}
	}
}

// TestSnapshotModelSpecValidation: a tampered model spec (wrong family,
// wrong fingerprint, bogus params) must be rejected even when the rest of
// the container is rewritten self-consistently.
func TestSnapshotModelSpecValidation(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 5_000, 5)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := encodeModelSpec[uint64](tab.Model())
	if err != nil {
		t.Fatal(err)
	}

	// Family name swapped: reconstruction builds a different family whose
	// fingerprint cannot match.
	bad := append([]byte(nil), spec...)
	copy(bad[4:], "XM")
	if _, err := decodeModelSpec(bad, keys); err == nil {
		t.Error("unknown family accepted")
	}
	lin := append([]byte(nil), spec...)
	binary.LittleEndian.PutUint32(lin, 6)
	lin = append(lin[:4], append([]byte("Linear"), lin[4+2:]...)...)
	if _, err := decodeModelSpec(lin, keys); err == nil {
		t.Error("swapped family with stale fingerprint accepted")
	}

	// Fingerprint flipped.
	fp := append([]byte(nil), spec...)
	fp[4+2] ^= 0xFF // first fingerprint byte (name "IM" is 2 bytes)
	if _, err := decodeModelSpec(fp, keys); err == nil {
		t.Error("wrong fingerprint accepted")
	}

	// Unsolicited params for a keys-only family.
	p := append([]byte(nil), spec...)
	p = append(p, 1, 2, 3, 4)
	binary.LittleEndian.PutUint32(p[4+2+8:], 4)
	if _, err := decodeModelSpec(p, keys); err == nil {
		t.Error("params for IM accepted")
	}

	// Truncations at every length.
	for cut := 0; cut < len(spec); cut++ {
		if _, err := decodeModelSpec(spec[:cut], keys); err == nil {
			t.Errorf("model spec truncated to %d bytes accepted", cut)
		}
	}
}

// TestSnapshotSaveLoadFile exercises the crash-safe file path end to end
// through a Table.
func TestSnapshotSaveLoadFile(t *testing.T) {
	keys := dataset.MustGenerate(dataset.UDen, 64, 10_000, 11)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.snap")
	if err := snapshot.SaveFile(path, tab.SnapshotKind(), tab.PersistSnapshot); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := MapTableSnapshot[uint64](m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 37 {
		if got, want := loaded.Find(keys[i]), kv.LowerBound(keys, keys[i]); got != want {
			t.Fatalf("loaded Find(%d) = %d, want %d", keys[i], got, want)
		}
	}
}
