package radixspline

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
			{}, // defaults
			{MaxError: 4},
			{MaxError: 256},
			{MaxError: 8, RadixBits: 4},
			{MaxError: 64, RadixBits: 24},
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
					t.Fatalf("%s eps=%d r=%d: Find(%d) = %d, want %d",
						name, cfg.MaxError, cfg.RadixBits, q, got, want)
				}
			}
			for _, q := range []uint64{0, ^uint64(0), keys[0], keys[len(keys)-1]} {
				if got, want := idx.Find(q), kv.LowerBound(keys, q); got != want {
					t.Fatalf("%s: boundary Find(%d) = %d, want %d", name, q, got, want)
				}
			}
		}
	}
}

func TestErrorBoundHonoured(t *testing.T) {
	// The spline guarantee: for every indexed key, |Predict − firstOcc| ≤ ε.
	for _, name := range []dataset.Name{dataset.Face, dataset.Osmc, dataset.LogN, dataset.Wiki} {
		keys := dataset.MustGenerate(name, 64, 20000, 7)
		for _, eps := range []int{2, 16, 128} {
			idx, err := New(keys, Config{MaxError: eps})
			if err != nil {
				t.Fatal(err)
			}
			firstOcc := kv.FirstOccurrence(keys)
			for i, k := range keys {
				pred := idx.Predict(k)
				if d := pred - firstOcc[i]; d > eps || d < -eps {
					t.Fatalf("%s ε=%d: |Predict(%d)−%d| = %d exceeds bound",
						name, eps, k, firstOcc[i], d)
				}
			}
		}
	}
}

func TestMonotonePredictions(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 64, 10000, 5)
	idx, err := New(keys, Config{MaxError: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Monotone() {
		t.Fatal("RadixSpline must report monotone (§3.8)")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		if idx.Predict(a) > idx.Predict(b) {
			t.Fatalf("monotonicity violated: Predict(%d) > Predict(%d)", a, b)
		}
	}
}

func TestSmallerEpsilonMoreSplinePoints(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 30000, 5)
	tight, _ := New(keys, Config{MaxError: 2})
	loose, _ := New(keys, Config{MaxError: 256})
	if len(tight.splineX) <= len(loose.splineX) {
		t.Errorf("ε=2 spline (%d pts) should be larger than ε=256 (%d pts)",
			len(tight.splineX), len(loose.splineX))
	}
	if tight.SizeBytes() <= loose.SizeBytes() {
		t.Error("size accounting should follow spline growth")
	}
}

func TestDuplicateRuns(t *testing.T) {
	// Long duplicate runs: the spline tracks first occurrences; lookups
	// past a run must still resolve correctly (validation fallback).
	var keys []uint64
	for i := 0; i < 50; i++ {
		for j := 0; j < 40; j++ {
			keys = append(keys, uint64(i*1000))
		}
	}
	idx, err := New(keys, Config{MaxError: 4})
	if err != nil {
		t.Fatal(err)
	}
	for q := uint64(0); q < 51000; q += 97 {
		if got, want := idx.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if _, err := New([]uint64{2, 1}, Config{}); err == nil {
		t.Error("want error for unsorted keys")
	}
	if _, err := New([]uint64{1}, Config{MaxError: -1}); err == nil {
		t.Error("want error for negative epsilon")
	}
	if _, err := New([]uint64{1}, Config{RadixBits: 40}); err == nil {
		t.Error("want error for oversized radix bits")
	}
	idx, err := New([]uint64{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Find(5); got != 0 {
		t.Errorf("empty Find = %d, want 0", got)
	}
	// Single key and all-duplicates.
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
	// Key zero only: radix shift degenerates gracefully.
	idx, _ = New([]uint64{0, 0, 0}, Config{})
	if got := idx.Find(0); got != 0 {
		t.Errorf("zero-key Find(0) = %d, want 0", got)
	}
	if got := idx.Find(1); got != 3 {
		t.Errorf("zero-key Find(1) = %d, want 3", got)
	}
}

func TestUint32(t *testing.T) {
	keys := dataset.U32(dataset.MustGenerate(dataset.LogN, 32, 4000, 5))
	idx, err := New(keys, Config{MaxError: 16})
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

func TestAccessors(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 3)
	idx, err := New(keys, Config{MaxError: 24})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "RS" {
		t.Errorf("Name = %q, want RS", idx.Name())
	}
	if idx.MaxError() != 24 {
		t.Errorf("MaxError = %d, want 24", idx.MaxError())
	}
	if len(idx.splineX) < 2 {
		t.Error("spline must have at least two points")
	}
}
