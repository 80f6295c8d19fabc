package repro_test

import (
	"path/filepath"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/router"
	"repro/internal/updatable"
)

// v1FixtureKeys is the key set every fixture under testdata/v1 was built
// from (testdata/v1/README.md records the recipe).
func v1FixtureKeys() []uint64 { return dataset.MustGenerate(dataset.Face, 64, 2000, 12) }

// v1FixtureWrites replays the fixtures' write sequence: every fourth
// write deletes a distinct base key, the rest insert near-copies of base
// keys.
func v1FixtureWrites(t *testing.T, keys []uint64, n int, insert func(uint64) error, del func(uint64) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			if k := keys[(i/4*37)%len(keys)]; !del(k) {
				t.Fatalf("fixture write %d: delete of %d found nothing", i, k)
			}
		} else if err := insert(keys[(i*13)%len(keys)] + uint64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
}

// finder is the query surface every restored fixture shares.
type finder interface{ Find(q uint64) int }

// TestV1Fixtures: fulls of every kind that an earlier build wrote in the
// v1 stream framing still load through both entry points. The mapped
// entry point must fall back to the streaming load (viaMap false), and
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
		{"updatable.snap", keys, func(t *testing.T) finder {
			ix, err := updatable.New(keys, updatable.Config{})
			if err != nil {
				t.Fatal(err)
			}
			v1FixtureWrites(t, keys, 600, ix.Insert, ix.Delete)
			return ix
		}, func(path string, mapped bool) (finder, bool, error) {
			if mapped {
				return updatable.MapViewFile[uint64](path)
			}
			ix, err := updatable.LoadFile[uint64](path)
			return ix, false, err
		}},
		{"concurrent.snap", keys, func(t *testing.T) finder {
			ix, err := concurrent.New(keys, concurrent.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ix.Close() // no background compaction: explicit Compact calls only
			v1FixtureWrites(t, keys, 1500, func(k uint64) error { ix.Insert(k); return nil }, ix.Delete)
			return ix
		}, func(path string, mapped bool) (finder, bool, error) {
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
