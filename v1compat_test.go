package repro_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/migrate"
	"repro/internal/snapshot"
)

// v1FixtureKeys is the key set every fixture under testdata/v1 was built
// from (testdata/v1/README.md records the recipe).
func v1FixtureKeys() []uint64 { return dataset.MustGenerate(dataset.Face, 64, 2000, 12) }

// closedWrites rebuilds a fixture as a concurrent index closed right
// after New (no background compaction) carrying the fixtures' write
// sequence writes(n): every fourth write deletes a distinct base key, the
// rest insert near-copies of base keys.
func closedWrites(keys []uint64, n int) func(t *testing.T) finder {
	return func(t *testing.T) finder {
		ix, err := concurrent.New(keys, concurrent.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
		for i := 0; i < n; i++ {
			if i%4 == 3 {
				if k := keys[(i/4*37)%len(keys)]; !ix.Delete(k) {
					t.Fatalf("fixture write %d: delete of %d found nothing", i, k)
				}
			} else {
				ix.Insert(keys[(i*13)%len(keys)] + uint64(i%5))
			}
		}
		return ix
	}
}

// finder is the query surface every restored fixture shares.
type finder interface{ Find(q uint64) int }

// servingEntryPoints are the entry points through which a full reaches a
// serving index, each reduced to "load the file with 64-bit keys and
// release what it returns". (Replica sync and warm restart run over the
// same concurrent loaders; internal/replica's tests cover them.)
var servingEntryPoints = map[string]func(path string) error{
	"index.Load": func(path string) error {
		return viaBytes(path, func(data []byte) error {
			ix, err := index.Load[uint64](bytes.NewReader(data), int64(len(data)))
			return release(ix, err)
		})
	},
	"index.LoadFile": func(path string) error { return release(index.LoadFile[uint64](path)) },
	"index.LoadFileMapped": func(path string) error {
		return release(index.LoadFileMapped[uint64](path))
	},
	"concurrent.LoadFile": func(path string) error { return release(concurrent.LoadFile[uint64](path)) },
	"concurrent.LoadStateFile": func(path string) error {
		_, err := concurrent.LoadStateFile[uint64](path)
		return err
	},
	"concurrent.MapState": func(path string) error {
		m, err := snapshot.MapFile(path)
		if err != nil {
			return err
		}
		defer m.Close()
		_, err = concurrent.MapState[uint64](m)
		return err
	},
	"concurrent.MapStateFile": func(path string) error {
		_, err := concurrent.MapStateFile[uint64](path)
		return err
	},
}

func viaBytes(path string, load func([]byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return load(data)
}

// release stops a restored concurrent index's compactor and passes err on.
func release[T any](ix T, err error) error {
	if c, ok := any(ix).(interface{ Close() }); ok && err == nil {
		c.Close()
	}
	return err
}

// checkRefused asserts that every serving entry point whose name starts
// with one of prefixes refuses path with snapshot.ErrLegacy.
func checkRefused(t *testing.T, path string, prefixes ...string) {
	t.Helper()
	for name, load := range servingEntryPoints {
		for _, p := range prefixes {
			if !strings.HasPrefix(name, p) {
				continue
			}
			if err := load(path); !errors.Is(err, snapshot.ErrLegacy) {
				t.Fatalf("%s: %v, want snapshot.ErrLegacy", name, err)
			}
		}
	}
}

// migrateFixture migrates the legacy full at path (internal/migrate, the
// rewrite `shifttool -load OLD -save NEW` runs) into a temporary file,
// checks that a load and save of it reproduce its bytes, and returns its
// path.
func migrateFixture(t *testing.T, path string) string {
	t.Helper()
	cur, err := migrate.Full(readFile(t, path))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "migrated.snap")
	if err := os.WriteFile(out, cur, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := index.LoadFile[uint64](out)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex(ix)
	resaved := filepath.Join(dir, "resaved.snap")
	if err := index.SaveFile(resaved, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, resaved), cur) {
		t.Fatal("loading and saving the migrated file does not reproduce it")
	}
	return out
}

// TestV1Fixtures: fulls of every kind that an earlier build wrote in the
// v1 stream framing are refused by every serving entry point with
// snapshot.ErrLegacy. Each migrates into a file that loads and saves
// back to itself, opens through the verified heap load and the mapped
// open (which maps it), and answers rank for rank like an index rebuilt
// from the same keys and writes.
func TestV1Fixtures(t *testing.T) {
	keys := v1FixtureKeys()
	registry := func(name string) func(t *testing.T) finder {
		return func(t *testing.T) finder {
			ix, err := index.Build(name, keys)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
	}
	cases := []struct {
		file    string
		probes  []uint64
		rebuild func(t *testing.T) finder
	}{
		{"shift-table.snap", keys, registry("IM+ST")},
		{"model-index.snap", keys, registry("IM")},
		// An earlier build's single-threaded index, with a live insert
		// buffer and tombstones; it migrates to a concurrent index.
		{"updatable.snap", keys, closedWrites(keys, 600)},
		{"concurrent.snap", keys, closedWrites(keys, 1500)},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			want := c.rebuild(t)
			path := filepath.Join("testdata", "v1", c.file)
			checkRefused(t, path, "index.", "concurrent.")
			migrated := migrateFixture(t, path)
			for _, mapped := range []bool{false, true} {
				load := index.LoadFile[uint64]
				if mapped {
					load = index.LoadFileMapped[uint64]
				}
				got, err := load(migrated)
				if err != nil {
					t.Fatalf("mapped=%v: %v", mapped, err)
				}
				defer closeIndex(got)
				if m := got.(interface{ Mapped() bool }).Mapped(); m != mapped {
					t.Fatalf("mapped=%v: the restored index reports Mapped() = %v", mapped, m)
				}
				for _, k := range c.probes {
					for _, q := range []uint64{0, k - 1, k, k + 1, ^uint64(0)} {
						if g, w := got.Find(q), want.Find(q); g != w {
							t.Fatalf("mapped=%v: Find(%d) = %d, rebuilt index says %d", mapped, q, g, w)
						}
					}
				}
			}
		})
	}
}

// TestLegacyUpdatableGolden: internal/updatable/testdata/tombstone-free.snap
// is a v2 container of the retired "updatable" kind whose view holds a
// 100-key insert buffer (recipe: that directory's README);
// tombstone-free-v2.snap is the same index with the v2 layer blob its
// build wrote. Every serving entry point refuses both with
// snapshot.ErrLegacy; each migration loads through both registry entry
// points as a concurrent index with the buffer pending, rank-identical
// to one built from the same keys with the buffered keys inserted.
func TestLegacyUpdatableGolden(t *testing.T) {
	keys := v1FixtureKeys()
	want, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	for i := 0; i < 100; i++ {
		want.Insert(keys[(i*13)%2000] + uint64(i%5))
	}
	for _, name := range []string{"tombstone-free.snap", "tombstone-free-v2.snap"} {
		path := filepath.Join("internal", "updatable", "testdata", name)
		checkRefused(t, path, "index.", "concurrent.")
		checkMigratedBuffer(t, migrateFixture(t, path), keys, want)
	}
}

// checkMigratedBuffer loads the migration of the updatable golden file
// through both registry entry points and checks it answers like want.
func checkMigratedBuffer(t *testing.T, migrated string, keys []uint64, want *concurrent.Index[uint64]) {
	t.Helper()
	for _, load := range []func(string) (index.Index[uint64], error){index.LoadFile[uint64], index.LoadFileMapped[uint64]} {
		got, err := load(migrated)
		if err != nil {
			t.Fatal(err)
		}
		ix, ok := got.(*concurrent.Index[uint64])
		if !ok {
			t.Fatalf("loaded a %T, want a concurrent index", got)
		}
		defer ix.Close()
		if ix.Len() != want.Len() || ix.Pending() != 100 {
			t.Fatalf("mapped=%v: %d live keys, %d pending; want %d and 100", ix.Mapped(), ix.Len(), ix.Pending(), want.Len())
		}
		for _, k := range keys {
			for _, q := range []uint64{k - 1, k, k + 1, k + 4} {
				if g, w := ix.Find(q), want.Find(q); g != w {
					t.Fatalf("mapped=%v: Find(%d) = %d, rebuilt index says %d", ix.Mapped(), q, g, w)
				}
			}
		}
	}
}

// TestV2LayerGoldenRefused: internal/concurrent/testdata/golden-v2.snap is
// a current container whose layer is the v2 blob (interleaved <lo, hi>
// pairs and partition counts) a build before v3 layers wrote. Every
// serving entry point refuses it with snapshot.ErrLegacy, and its
// migration loads and saves back to itself.
func TestV2LayerGoldenRefused(t *testing.T) {
	path := filepath.Join("internal", "concurrent", "testdata", "golden-v2.snap")
	checkRefused(t, path, "index.", "concurrent.")
	migrateFixture(t, path)
}
