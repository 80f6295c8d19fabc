package bench

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
)

// TestWarmBeatsCold asserts the mapped v2 warm start beats cold rebuild
// for every persistence-capable backend — including bare IM, whose heap
// warm load runs slower than its trivial cold build, and the concurrent
// index, whose cold arm replays 10,000 writes that the snapshot carries
// as pending generations. The mapped open does no per-key work while
// every cold build is at least O(n), so at 200k keys the margin is
// structural, not a timing accident; three attempts absorb scheduler
// noise anyway. Every mapped index must answer the probes exactly like
// its cold twin.
func TestWarmBeatsCold(t *testing.T) {
	keys, err := dataset.Generate(dataset.Face, 64, 200_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]uint64, 500)
	rng := rand.New(rand.NewSource(8))
	for i := range qs {
		qs[i] = keys[rng.Intn(len(keys))] + uint64(i%2)
	}
	registry := func(name string) func() (index.Index[uint64], error) {
		return func() (index.Index[uint64], error) { return index.Build(name, keys) }
	}
	mapRegistry := index.LoadFileMapped[uint64]
	backends := []struct {
		name string
		cold func() (index.Index[uint64], error)
		open func(path string) (index.Index[uint64], error)
	}{
		{"IM", registry("IM"), mapRegistry},
		{"IM+ST", registry("IM+ST"), mapRegistry},
		{"RS+ST", registry("RS+ST"), mapRegistry},
		{"concurrent", func() (index.Index[uint64], error) {
			ix, err := concurrent.New(keys, concurrent.Config{})
			if err != nil {
				return nil, err
			}
			ix.Close() // explicit Compact only: the writes stay pending
			wr := rand.New(rand.NewSource(17))
			for i := 0; i < 10_000; i++ {
				if i%3 == 0 {
					ix.Delete(keys[wr.Intn(len(keys))])
				} else {
					ix.Insert(wr.Uint64() % (keys[len(keys)-1] + 2))
				}
			}
			return ix, nil
		}, func(path string) (index.Index[uint64], error) {
			ix, err := mapRegistry(path)
			if err != nil {
				return nil, err
			}
			ix.(*concurrent.Index[uint64]).Close()
			return ix, nil
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "warm.snap")
			var coldD, mapD time.Duration
			for attempt := 0; attempt < 3; attempt++ {
				start := time.Now()
				cold, err := be.cold()
				coldD = time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if err := index.SaveFile(path, cold); err != nil {
					t.Fatal(err)
				}
				start = time.Now()
				warm, err := be.open(path)
				mapD = time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if !warm.(interface{ Mapped() bool }).Mapped() {
					t.Fatalf("%s did not open mapped", path)
				}
				for _, q := range qs {
					if got, want := warm.Find(q), cold.Find(q); got != want {
						t.Fatalf("mapped Find(%d) = %d, cold twin %d", q, got, want)
					}
				}
				if mapD < coldD {
					return
				}
			}
			t.Errorf("mapped warm start (%v) did not beat cold build (%v)", mapD, coldD)
		})
	}
}
