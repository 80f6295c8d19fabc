package repro_test

import (
	"path/filepath"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/router"
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

// TestV1Fixtures: fulls of every kind that an earlier build wrote in the
// v1 stream framing still load through both entry points. The mapped
// entry point opens them onto the heap (viaMap false), and
// every restored index must be rank-identical to one rebuilt from the
// same keys and writes.
func TestV1Fixtures(t *testing.T) {
	keys := v1FixtureKeys()
	pw := dataset.Piecewise(2000, 12)
	registry := func(name string) func(t *testing.T) finder {
		return func(t *testing.T) finder {
			ix, err := index.Build(name, keys)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
	}
	loadIndex := func(path string, mapped bool) (finder, bool, error) {
		if mapped {
			return index.LoadFileMapped[uint64](path)
		}
		ix, err := index.LoadFile[uint64](path)
		return ix, false, err
	}
	cases := []struct {
		file    string
		probes  []uint64
		rebuild func(t *testing.T) finder
		load    func(path string, mapped bool) (finder, bool, error)
	}{
		{"shift-table.snap", keys, registry("IM+ST"), loadIndex},
		{"model-index.snap", keys, registry("IM"), loadIndex},
		{"router.snap", pw, func(t *testing.T) finder {
			r, err := router.New(pw, router.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, loadIndex},
		// An earlier build's single-threaded index, with a live insert
		// buffer and tombstones; it loads as a concurrent index.
		{"updatable.snap", keys, closedWrites(keys, 600), loadIndex},
		{"concurrent.snap", keys, closedWrites(keys, 1500), func(path string, mapped bool) (finder, bool, error) {
			if mapped {
				return concurrent.MapFile[uint64](path)
			}
			ix, err := concurrent.LoadFile[uint64](path)
			return ix, false, err
		}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			want := c.rebuild(t)
			path := filepath.Join("testdata", "v1", c.file)
			for _, mapped := range []bool{false, true} {
				got, viaMap, err := c.load(path, mapped)
				if err != nil {
					t.Fatalf("mapped=%v: %v", mapped, err)
				}
				if viaMap {
					t.Fatalf("mapped=%v: a v1 container reported a mapped open", mapped)
				}
				if ix, ok := got.(interface{ Close() }); ok {
					defer ix.Close()
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
// is a v2 container of the legacy "updatable" kind whose view holds a
// 100-key insert buffer (recipe: that directory's README). Both registry
// entry points load it as a concurrent index rank-identical to one built
// from the same keys with the buffered keys inserted.
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
	path := filepath.Join("internal", "updatable", "testdata", "tombstone-free.snap")
	for _, mapped := range []bool{false, true} {
		var got index.Index[uint64]
		if mapped {
			got, _, err = index.LoadFileMapped[uint64](path)
		} else {
			got, err = index.LoadFile[uint64](path)
		}
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		ix, ok := got.(*concurrent.Index[uint64])
		if !ok {
			t.Fatalf("mapped=%v: loaded a %T, want a concurrent index", mapped, got)
		}
		defer ix.Close()
		if ix.Len() != want.Len() || ix.Pending() != 100 {
			t.Fatalf("mapped=%v: %d live keys, %d pending; want %d and 100", mapped, ix.Len(), ix.Pending(), want.Len())
		}
		for _, k := range keys {
			for _, q := range []uint64{k - 1, k, k + 1, k + 4} {
				if g, w := ix.Find(q), want.Find(q); g != w {
					t.Fatalf("mapped=%v: Find(%d) = %d, rebuilt index says %d", mapped, q, g, w)
				}
			}
		}
	}
}
