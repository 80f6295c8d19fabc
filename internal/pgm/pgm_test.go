package pgm

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
)

func TestFindMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range dataset.Names {
		keys := dataset.MustGenerate(name, 64, 5000, 11)
		for _, cfg := range []Config{
			{},
			{Epsilon: 4},
			{Epsilon: 256},
			{Epsilon: 8, RootFanout: 2},
		} {
			idx, err := New(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 800; i++ {
				var q uint64
				if i%2 == 0 {
					q = keys[rng.Intn(len(keys))]
				} else {
					q = rng.Uint64() % (keys[len(keys)-1] + 3)
				}
				if got, want := idx.Find(q), kv.LowerBound(keys, q); got != want {
					t.Fatalf("%s ε=%d: Find(%d) = %d, want %d", name, cfg.Epsilon, q, got, want)
				}
			}
			for _, q := range []uint64{0, ^uint64(0), keys[0], keys[len(keys)-1] + 1} {
				if got, want := idx.Find(q), kv.LowerBound(keys, q); got != want {
					t.Fatalf("%s: boundary Find(%d) = %d, want %d", name, q, got, want)
				}
			}
		}
	}
}

func TestEpsilonBoundHonoured(t *testing.T) {
	for _, name := range []dataset.Name{dataset.Face, dataset.Osmc, dataset.Wiki} {
		keys := dataset.MustGenerate(name, 64, 20000, 7)
		for _, eps := range []int{4, 64} {
			idx, err := New(keys, Config{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			firstOcc := kv.FirstOccurrence(keys)
			for i, k := range keys {
				if d := idx.Predict(k) - firstOcc[i]; d > eps || d < -eps {
					t.Fatalf("%s ε=%d: |Predict(%d)−%d| = %d exceeds bound", name, eps, k, firstOcc[i], d)
				}
			}
		}
	}
}

func TestMonotonePredictions(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 64, 10000, 5)
	idx, err := New(keys, Config{Epsilon: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Monotone() {
		t.Fatal("PGM must report monotone")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		if idx.Predict(a) > idx.Predict(b) {
			t.Fatalf("monotonicity violated at (%d, %d)", a, b)
		}
	}
}

func TestMultiLevelStructure(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 50000, 5)
	idx, err := New(keys, Config{Epsilon: 4, RootFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.levels) < 2 {
		t.Errorf("tight ε with tiny fanout should recurse: levels = %d", len(idx.levels))
	}
	if len(idx.levels[0]) <= len(idx.levels) {
		t.Error("level-0 segment count should dominate")
	}
	// Tighter ε → more segments.
	loose, _ := New(keys, Config{Epsilon: 512})
	if len(idx.levels[0]) <= len(loose.levels[0]) {
		t.Errorf("ε=4 segments (%d) should exceed ε=512 (%d)", len(idx.levels[0]), len(loose.levels[0]))
	}
	if idx.SizeBytes() <= loose.SizeBytes() {
		t.Error("size should follow segment count")
	}
}

func TestEdgeCases(t *testing.T) {
	if _, err := New([]uint64{2, 1}, Config{}); err == nil {
		t.Error("want error for unsorted keys")
	}
	if _, err := New([]uint64{1}, Config{Epsilon: -2}); err == nil {
		t.Error("want error for negative epsilon")
	}
	if _, err := New([]uint64{1}, Config{RootFanout: -1}); err == nil {
		t.Error("want error for negative fanout")
	}
	idx, err := New([]uint64{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Find(9); got != 0 {
		t.Errorf("empty Find = %d, want 0", got)
	}
	idx, _ = New([]uint64{7}, Config{})
	for _, c := range []struct {
		q    uint64
		want int
	}{{6, 0}, {7, 0}, {8, 1}} {
		if got := idx.Find(c.q); got != c.want {
			t.Errorf("single-key Find(%d) = %d, want %d", c.q, got, c.want)
		}
	}
	idx, _ = New([]uint64{5, 5, 5, 5}, Config{})
	if got := idx.Find(5); got != 0 {
		t.Errorf("all-dup Find(5) = %d, want 0", got)
	}
	if got := idx.Find(6); got != 4 {
		t.Errorf("all-dup Find(6) = %d, want 4", got)
	}
}

func TestUint32(t *testing.T) {
	keys := dataset.U32(dataset.MustGenerate(dataset.Norm, 32, 4000, 5))
	idx, err := New(keys, Config{Epsilon: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		q := uint32(rng.Uint64())
		if got, want := idx.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("uint32 Find(%d) = %d, want %d", q, got, want)
		}
	}
}
