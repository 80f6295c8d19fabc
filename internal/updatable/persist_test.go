package updatable

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// stormed builds an index with live tombstones and a live delta buffer —
// the full View state a snapshot must carry.
func stormed(t *testing.T, n int, seed int64) (*Index[uint64], []uint64) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.Face, 64, n, seed)
	ix, err := New(keys, Config{MaxDelta: 1 << 30}) // no auto-compaction: keep delta/tombstones live
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/10; i++ {
		if err := ix.Insert(rng.Uint64() % (keys[len(keys)-1] + 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/20; i++ {
		ix.Delete(keys[rng.Intn(len(keys))])
	}
	return ix, keys
}

// TestUpdatableSnapshotRoundTrip: the restored index answers Find, Lookup
// and Scan identically, and stays writable (a post-load compaction folds
// the restored tombstones and delta into a fresh base).
func TestUpdatableSnapshotRoundTrip(t *testing.T) {
	orig, keys := stormed(t, 20_000, 5)
	st := orig.Stats()
	if st.Tombstones == 0 || st.DeltaLen == 0 {
		t.Fatal("storm produced no tombstones or delta")
	}

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	lst := loaded.Stats()
	if lst.Live != st.Live || lst.Tombstones != st.Tombstones || lst.DeltaLen != st.DeltaLen {
		t.Fatalf("restored stats %+v, want %+v", lst, st)
	}

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8_000; i++ {
		q := rng.Uint64() % (keys[len(keys)-1] + 2)
		if got, want := loaded.Find(q), orig.Find(q); got != want {
			t.Fatalf("loaded Find(%d) = %d, want %d", q, got, want)
		}
		gr, gf := loaded.Lookup(q)
		wr, wf := orig.Lookup(q)
		if gr != wr || gf != wf {
			t.Fatalf("loaded Lookup(%d) = (%d,%v), want (%d,%v)", q, gr, gf, wr, wf)
		}
	}
	var wantScan, gotScan []uint64
	orig.Scan(0, ^uint64(0), func(k uint64) bool { wantScan = append(wantScan, k); return true })
	loaded.Scan(0, ^uint64(0), func(k uint64) bool { gotScan = append(gotScan, k); return true })
	if len(wantScan) != len(gotScan) {
		t.Fatalf("scan lengths differ: %d vs %d", len(gotScan), len(wantScan))
	}
	for i := range wantScan {
		if wantScan[i] != gotScan[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, gotScan[i], wantScan[i])
		}
	}

	// The restored index is live: writes and an explicit compaction work,
	// and the layer configuration survived the round trip.
	if err := loaded.Insert(12345); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Len(), st.Live+1; got != want {
		t.Fatalf("after insert+compact Len = %d, want %d", got, want)
	}
	if loaded.Stats().Tombstones != 0 {
		t.Error("compaction did not drop restored tombstones")
	}
}

// goldenIndex rebuilds the index testdata/tombstone-free.snap was written
// from (recipe: testdata/README.md).
func goldenIndex(t *testing.T) (*Index[uint64], []uint64) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := ix.Insert(keys[(i*13)%2000] + uint64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	return ix, keys
}

// TestTombstoneFreeGolden: a tombstone-free index saves byte-identical to
// the committed file, which a writer that always held tombstone state
// produced — the all-zero bitmap is written whether or not the view
// allocated one.
func TestTombstoneFreeGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.snap")
	ix, _ := goldenIndex(t)
	if err := SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tombstone-free.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SaveFile wrote %d bytes that differ from the %d-byte golden file", len(got), len(want))
	}
}

// TestLoadersRestoreTombstoneState: LoadFile and MapView restore exactly
// the persisted tombstones — no tombstone state for a tombstone-free file,
// the same bitmap for a tombstoned one — and answer like the saved index.
func TestLoadersRestoreTombstoneState(t *testing.T) {
	tombstoned, tombstonedKeys := stormed(t, 5_000, 3)
	golden, goldenKeys := goldenIndex(t)
	tombstonedPath := filepath.Join(t.TempDir(), "tombstoned.snap")
	if err := SaveFile(tombstonedPath, tombstoned); err != nil {
		t.Fatal(err)
	}
	files := []struct {
		name string
		path string
		orig *Index[uint64]
		keys []uint64
	}{
		{"tombstone-free", filepath.Join("testdata", "tombstone-free.snap"), golden, goldenKeys},
		{"tombstoned", tombstonedPath, tombstoned, tombstonedKeys},
	}
	loaders := []struct {
		name string
		load func(path string) (*Index[uint64], error)
	}{
		{"LoadFile", LoadFile[uint64]},
		{"MapView", func(path string) (*Index[uint64], error) {
			m, err := snapshot.MapFile(path)
			if err != nil {
				return nil, err
			}
			defer m.Close()
			return MapView[uint64](m)
		}},
	}
	for _, f := range files {
		for _, l := range loaders {
			t.Run(f.name+"/"+l.name, func(t *testing.T) {
				loaded, err := l.load(f.path)
				if err != nil {
					t.Fatal(err)
				}
				want, got := f.orig.View(), loaded.View()
				if got.deadCount != want.deadCount {
					t.Fatalf("restored %d tombstones, want %d", got.deadCount, want.deadCount)
				}
				if want.deadCount == 0 {
					noTombstoneState(t, "restored view", got)
				} else {
					for p := range want.dead {
						if got.dead[p] != want.dead[p] {
							t.Fatalf("restored tombstone bit %d = %v, want %v", p, got.dead[p], want.dead[p])
						}
					}
				}
				if got.SizeBytes() != want.SizeBytes() {
					t.Fatalf("restored SizeBytes = %d, want %d", got.SizeBytes(), want.SizeBytes())
				}
				for i := 0; i < len(f.keys); i += 7 {
					q := f.keys[i] + uint64(i%3)
					gr, gf := got.Lookup(q)
					wr, wf := want.Lookup(q)
					if gr != wr || gf != wf {
						t.Fatalf("restored Lookup(%d) = (%d,%v), want (%d,%v)", q, gr, gf, wr, wf)
					}
				}
			})
		}
	}
}

// TestUpdatableSnapshotCorruption: flips across the container must be
// rejected; the updatable sections ride the same checksum.
func TestUpdatableSnapshotCorruption(t *testing.T) {
	orig, _ := stormed(t, 2_000, 7)
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 0; i < len(raw); i += 5 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x08
		if _, err := Load[uint64](bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", i, len(raw))
		}
	}
}

// TestUpdatableSnapshotHostileLayerM: a checksummed-but-hostile snapshot
// whose meta claims an absurd layer configuration M must be rejected at
// load, not deferred to a makeslice panic in the first compaction.
func TestUpdatableSnapshotHostileLayerM(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2_000, 5)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := ix.Freeze()
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	meta := make([]byte, 0, 36)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(core.ModeRange))
	meta = binary.LittleEndian.AppendUint64(meta, 1<<60) // hostile layer M
	meta = binary.LittleEndian.AppendUint64(meta, 0)     // stride
	meta = binary.LittleEndian.AppendUint64(meta, 0)     // maxDelta
	meta = binary.LittleEndian.AppendUint64(meta, 0)     // deadCount
	if err := sw.Bytes(secUpdMeta, meta); err != nil {
		t.Fatal(err)
	}
	if err := v.table.PersistSnapshot(sw); err != nil {
		t.Fatal(err)
	}
	dead := make([]byte, (len(keys)+7)/8)
	dw, err := sw.SectionSized(secUpdDead, int64(len(dead)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dw.Write(dead); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteKeySection(sw, secUpdDelta, v.delta); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("hostile layer M accepted")
	}
}

// TestUpdatableSnapshotFile: crash-safe file round trip, plus the
// MaxDelta config surviving so compaction cadence is preserved.
func TestUpdatableSnapshotFile(t *testing.T) {
	keys := dataset.MustGenerate(dataset.LogN, 64, 10_000, 3)
	orig, err := New(keys, Config{MaxDelta: 777, Layer: core.Config{Mode: core.ModeMidpoint}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "upd.snap")
	if err := SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile[uint64](path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config().MaxDelta != 777 || loaded.Config().Layer.Mode != core.ModeMidpoint {
		t.Fatalf("config not preserved: %+v", loaded.Config())
	}
	for i := 0; i < len(keys); i += 53 {
		if got, want := loaded.Find(keys[i]), orig.Find(keys[i]); got != want {
			t.Fatalf("loaded Find(%d) = %d, want %d", keys[i], got, want)
		}
	}
}
