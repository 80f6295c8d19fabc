package updatable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/migrate"
	"repro/internal/snapshot"
)

// legacyKind is the container kind earlier builds saved their
// single-threaded index under (the loaders under test ignore the kind).
const legacyKind = "updatable"

// writeLegacy writes the updatable section sequence field by field, as
// earlier builds' single-threaded index did: the meta with its
// insert-buffer threshold and tombstone count, v's table, the tombstone
// bitmap (nil: all zero) and the insert buffer.
func writeLegacy(sw *snapshot.Writer, v *View[uint64], cfg Config, maxDelta, deadCount uint64, bitmap []byte, buffer []uint64) error {
	meta := binary.LittleEndian.AppendUint32(nil, uint32(cfg.Layer.Mode))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.Layer.M))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(cfg.Layer.SampleStride))
	meta = binary.LittleEndian.AppendUint64(meta, maxDelta)
	meta = binary.LittleEndian.AppendUint64(meta, deadCount)
	if err := sw.Bytes(secUpdMeta, meta); err != nil {
		return err
	}
	if err := v.table.PersistSnapshot(sw); err != nil {
		return err
	}
	if bitmap == nil {
		bitmap = make([]byte, (v.Len()+7)/8)
	}
	dw, err := sw.SectionSized(secUpdDead, int64(len(bitmap)))
	if err != nil {
		return err
	}
	if _, err := dw.Write(bitmap); err != nil {
		return err
	}
	return snapshot.WriteKeySection(sw, secUpdDelta, buffer)
}

// bitmapOf returns the tombstone bitmap of n base slots with slots set.
func bitmapOf(n int, slots []int) []byte {
	b := make([]byte, (n+7)/8)
	for _, p := range slots {
		b[p/8] |= 1 << (p % 8)
	}
	return b
}

// container writes one in-memory container of the legacy kind.
func container(t *testing.T, persist func(sw *snapshot.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, legacyKind)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadBytes is the heap load: read, verify every checksum, then the
// loader with its O(n) checks.
func loadBytes(raw []byte) (*Index[uint64], error) {
	m, err := snapshot.Read(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, err
	}
	return MapViewSections[uint64](m)
}

// loaders are the two entry points over a file: the verified heap read
// and the mapped open.
var loaders = []struct {
	name string
	load func(path string) (*Index[uint64], error)
}{
	{"LoadFile", func(path string) (*Index[uint64], error) {
		m, err := snapshot.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return MapViewSections[uint64](m)
	}},
	{"MapView", func(path string) (*Index[uint64], error) {
		m, err := snapshot.MapFile(path)
		if err != nil {
			return nil, err
		}
		defer m.Close()
		return MapViewSections[uint64](m)
	}},
}

// TestUpdatableSnapshotRoundTrip: PersistView writes exactly what an
// earlier writer wrote for a view without pending writes (threshold and
// tombstone count 0, an all-zero bitmap, an empty buffer), and
// MapViewSections restores the base with no pending writes.
func TestUpdatableSnapshotRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 20_000, 5)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := container(t, func(sw *snapshot.Writer) error { return PersistView(sw, ix.View(), ix.Config()) })
	want := container(t, func(sw *snapshot.Writer) error {
		return writeLegacy(sw, ix.View(), ix.Config(), 0, 0, nil, nil)
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("PersistView wrote %d bytes that differ from the %d-byte legacy layout", len(got), len(want))
	}
	restored, err := loadBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	answersLike(t, "restored", restored.View(), keys, probesFor(keys, 4_000, 9))
}

// goldenInserts replays the insert buffer testdata/tombstone-free.snap
// was written with (recipe: testdata/README.md) and returns it sorted.
func goldenInserts(keys []uint64) []uint64 {
	ins := make([]uint64, 0, 100)
	for i := 0; i < 100; i++ {
		ins = append(ins, keys[(i*13)%2000]+uint64(i%5))
	}
	slices.Sort(ins)
	return ins
}

// TestTombstoneFreeGolden: the committed file, an earlier build's
// single-threaded index holding a 100-key insert buffer with this build's
// v3 layer blob, is exactly the legacy layout writeLegacy reproduces, and
// both entry points refuse its buffer as legacy (internal/migrate moves it
// into a generation). tombstone-free-v2.snap, the same index as that
// build wrote it (v2 layer blob), migrates byte for byte to what the
// golden file migrates to.
func TestTombstoneFreeGolden(t *testing.T) {
	golden := filepath.Join("testdata", "tombstone-free.snap")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.snap")
	err = snapshot.SaveFile(path, legacyKind, func(sw *snapshot.Writer) error {
		return writeLegacy(sw, ix.View(), Config{}, 0, 0, nil, goldenInserts(keys))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("legacy layout (%d bytes, %v) differs from the %d-byte golden file", len(got), err, len(want))
	}
	legacy := filepath.Join("testdata", "tombstone-free-v2.snap")
	for _, l := range loaders {
		for _, path := range []string{golden, legacy} {
			if _, err := l.load(path); !errors.Is(err, snapshot.ErrLegacy) {
				t.Fatalf("%s %s: %v, want snapshot.ErrLegacy", l.name, path, err)
			}
		}
	}
	current, err := migrate.Full(want)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if migrated, err := migrate.Full(old); err != nil || !bytes.Equal(migrated, current) {
		t.Fatalf("tombstone-free-v2.snap does not migrate to what the golden file does (%d vs %d bytes, %v)",
			len(migrated), len(current), err)
	}
}

// TestLoadersRestoreTombstoneState: both entry points refuse a view that
// stores tombstone state or an insert buffer with snapshot.ErrLegacy —
// the golden file (a buffer) and a hand-written file with tombstoned base
// slots and a buffer — and restore the same base once the view stores
// none.
func TestLoadersRestoreTombstoneState(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	slots := []int{0, 7, 8, 9, 500, 1999}
	buffer := []uint64{keys[3], keys[3], keys[1500] + 1}
	dir := t.TempDir()
	tombstoned, clean := filepath.Join(dir, "tombstoned.snap"), filepath.Join(dir, "clean.snap")
	for path, persist := range map[string]func(sw *snapshot.Writer) error{
		tombstoned: func(sw *snapshot.Writer) error {
			return writeLegacy(sw, ix.View(), Config{}, 1<<20, uint64(len(slots)), bitmapOf(len(keys), slots), buffer)
		},
		clean: func(sw *snapshot.Writer) error { return PersistView(sw, ix.View(), Config{}) },
	} {
		if err := snapshot.SaveFile(path, legacyKind, persist); err != nil {
			t.Fatal(err)
		}
	}
	files := []struct{ name, path string }{
		{"tombstone-free", filepath.Join("testdata", "tombstone-free.snap")},
		{"tombstoned", tombstoned},
	}
	for _, f := range files {
		for _, l := range loaders {
			t.Run(f.name+"/"+l.name, func(t *testing.T) {
				if _, err := l.load(f.path); !errors.Is(err, snapshot.ErrLegacy) {
					t.Fatalf("%v, want snapshot.ErrLegacy", err)
				}
				got, err := l.load(clean)
				if err != nil {
					t.Fatal(err)
				}
				answersLike(t, "restored base", got.View(), keys, probesFor(keys, 500, 7))
			})
		}
	}
}

// TestUpdatableSnapshotCorruption: flips across a view container must be
// rejected; the updatable sections ride the same checksum.
func TestUpdatableSnapshotCorruption(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2_000, 7)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw := container(t, func(sw *snapshot.Writer) error { return PersistView(sw, ix.View(), ix.Config()) })
	if _, err := loadBytes(raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i += 5 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x08
		if _, err := loadBytes(bad); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", i, len(raw))
		}
	}
}

// TestUpdatableSnapshotHostileLayerM: a checksummed-but-hostile snapshot
// whose meta claims an absurd layer configuration M must be rejected at
// load, not deferred to a makeslice panic in the first compaction; so
// must legacy pending writes, consistent or not.
func TestUpdatableSnapshotHostileLayerM(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2_001, 5)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := ix.View()
	cases := []struct {
		name    string
		persist func(sw *snapshot.Writer) error
	}{
		{"hostile layer M", func(sw *snapshot.Writer) error {
			return writeLegacy(sw, v, Config{Layer: core.Config{M: 1 << 60}}, 0, 0, nil, nil)
		}},
		{"count exceeds base", func(sw *snapshot.Writer) error {
			return writeLegacy(sw, v, Config{}, 0, uint64(len(keys)+1), nil, nil)
		}},
		{"count disagrees with bitmap", func(sw *snapshot.Writer) error {
			return writeLegacy(sw, v, Config{}, 0, 1, bitmapOf(len(keys), []int{3, 4}), nil)
		}},
		{"bit past the last key", func(sw *snapshot.Writer) error {
			b := bitmapOf(len(keys), nil)
			b[len(b)-1] = 0x80
			return writeLegacy(sw, v, Config{}, 0, 1, b, nil)
		}},
		{"unsorted buffer", func(sw *snapshot.Writer) error {
			return writeLegacy(sw, v, Config{}, 0, 0, nil, []uint64{9, 3})
		}},
	}
	for _, c := range cases {
		if _, err := loadBytes(container(t, c.persist)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestUpdatableSnapshotFile: crash-safe file round trip through both
// readers, with the layer configuration surviving so compaction rebuilds
// with it.
func TestUpdatableSnapshotFile(t *testing.T) {
	keys := dataset.MustGenerate(dataset.LogN, 64, 10_000, 3)
	cfg := Config{Layer: core.Config{Mode: core.ModeMidpoint}}
	ix, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "upd.snap")
	err = snapshot.SaveFile(path, legacyKind, func(sw *snapshot.Writer) error {
		return PersistView(sw, ix.View(), cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loaders {
		got, err := l.load(path)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if got.Config() != cfg {
			t.Fatalf("%s: config %+v, want %+v", l.name, got.Config(), cfg)
		}
		answersLike(t, l.name, got.View(), keys, probesFor(keys, 1_000, 5))
	}
}
