package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
)

// opaqueModel hides a model's concrete type so it does not satisfy
// BatchPredictor, exercising the generic fallback loop in PredictBatch.
type opaqueModel[K kv.Key] struct{ m cdfmodel.Model[K] }

func (o opaqueModel[K]) Predict(k K) int { return o.m.Predict(k) }
func (o opaqueModel[K]) Monotone() bool  { return o.m.Monotone() }
func (o opaqueModel[K]) SizeBytes() int  { return o.m.SizeBytes() }
func (o opaqueModel[K]) Name() string    { return o.m.Name() }

// batchCase is one (keys, model, config) configuration the batch engine
// must answer bit-identically to the scalar path on.
type batchCase struct {
	name  string
	keys  []uint64
	model func(keys []uint64) cdfmodel.Model[uint64]
	cfg   Config
}

func batchKeys(n int, seed int64, dupEvery int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	v := uint64(0)
	for i := range keys {
		if dupEvery > 0 && i%dupEvery != 0 {
			// duplicate the previous key
		} else {
			v += 1 + uint64(rng.Intn(1000))
		}
		keys[i] = v
	}
	return keys
}

func imModel(keys []uint64) cdfmodel.Model[uint64] { return cdfmodel.NewInterpolation(keys) }

func batchCases(t testing.TB) []batchCase {
	n := 20_000
	plain := batchKeys(n, 1, 0)
	dups := batchKeys(n, 2, 5) // duplicate-heavy: runs of 5
	return []batchCase{
		{"R/M=N/IM", plain, imModel, Config{Mode: ModeRange}},
		{"S/M=N/IM", plain, imModel, Config{Mode: ModeMidpoint}},
		{"R/M=N8/IM", plain, imModel, Config{Mode: ModeRange, M: n / 8}},
		{"S/M=N8/IM", plain, imModel, Config{Mode: ModeMidpoint, M: n / 8}},
		{"S/M=N8/sampled", plain, imModel, Config{Mode: ModeMidpoint, M: n / 8, SampleStride: 4}},
		{"R/dups/IM", dups, imModel, Config{Mode: ModeRange}},
		{"S/dups/IM", dups, imModel, Config{Mode: ModeMidpoint}},
		{"R/linear", plain, func(k []uint64) cdfmodel.Model[uint64] { return cdfmodel.NewLinear(k) }, Config{Mode: ModeRange}},
		// Cubic is non-monotone: exercises the validate-and-fallback lanes.
		{"R/cubic", plain, func(k []uint64) cdfmodel.Model[uint64] { return cdfmodel.NewCubic(k) }, Config{Mode: ModeRange}},
		{"S/cubic", plain, func(k []uint64) cdfmodel.Model[uint64] { return cdfmodel.NewCubic(k) }, Config{Mode: ModeMidpoint}},
		// Opaque model: no BatchPredictor, generic prediction fallback.
		{"R/opaque", plain, func(k []uint64) cdfmodel.Model[uint64] {
			return opaqueModel[uint64]{cdfmodel.NewInterpolation(k)}
		}, Config{Mode: ModeRange}},
	}
}

// batchQueries mixes hits, misses, and out-of-range probes (0, below-min,
// above-max, domain maximum).
func batchQueries(keys []uint64, nq int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]uint64, nq)
	for i := range qs {
		switch rng.Intn(8) {
		case 0:
			qs[i] = rng.Uint64() // arbitrary, usually a miss
		case 1:
			qs[i] = 0
		case 2:
			qs[i] = ^uint64(0)
		case 3:
			qs[i] = keys[len(keys)-1] + uint64(rng.Intn(100)) + 1
		default:
			qs[i] = keys[rng.Intn(len(keys))] + uint64(rng.Intn(3)) - 1
		}
	}
	return qs
}

func TestFindBatchMatchesScalar(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Build(tc.keys, tc.model(tc.keys), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			qs := batchQueries(tc.keys, 10_000, 7)
			got := tab.FindBatch(qs, nil)
			for i, q := range qs {
				want := tab.Find(q)
				if got[i] != want {
					t.Fatalf("FindBatch[%d] (q=%d) = %d, scalar Find = %d", i, q, got[i], want)
				}
				if ref := kv.LowerBound(tc.keys, q); got[i] != ref {
					t.Fatalf("FindBatch[%d] (q=%d) = %d, kv.LowerBound = %d", i, q, got[i], ref)
				}
			}
		})
	}
}

func TestFindBatchParallelBitIdentical(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Build(tc.keys, tc.model(tc.keys), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			qs := batchQueries(tc.keys, 30_000, 11)
			want := tab.FindBatch(qs, nil)
			for _, workers := range []int{0, 1, 2, 3, 7} {
				got := tab.FindBatchParallel(qs, nil, workers)
				for i := range qs {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: FindBatchParallel[%d] = %d, FindBatch = %d", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestLookupBatchMatchesScalar(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Build(tc.keys, tc.model(tc.keys), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			qs := batchQueries(tc.keys, 5_000, 13)
			pos, found := tab.LookupBatch(qs, nil, nil)
			for i, q := range qs {
				wp, wf := tab.Lookup(q)
				if pos[i] != wp || found[i] != wf {
					t.Fatalf("LookupBatch[%d] (q=%d) = (%d,%v), scalar = (%d,%v)", i, q, pos[i], found[i], wp, wf)
				}
			}
		})
	}
}

func TestFindRangeBatchMatchesScalar(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Build(tc.keys, tc.model(tc.keys), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			nq := 3_000
			as := make([]uint64, nq)
			bs := make([]uint64, nq)
			for i := range as {
				a := tc.keys[rng.Intn(len(tc.keys))]
				switch rng.Intn(6) {
				case 0: // inverted range
					as[i], bs[i] = a+10, a
				case 1: // range to the domain maximum
					as[i], bs[i] = a, ^uint64(0)
				default:
					as[i], bs[i] = a, a+uint64(rng.Intn(5000))
				}
			}
			firsts, lasts := tab.FindRangeBatch(as, bs, nil, nil)
			for i := range as {
				wf, wl := tab.FindRange(as[i], bs[i])
				if firsts[i] != wf || lasts[i] != wl {
					t.Fatalf("FindRangeBatch[%d] (%d,%d) = [%d,%d), scalar = [%d,%d)",
						i, as[i], bs[i], firsts[i], lasts[i], wf, wl)
				}
			}
		})
	}
}

func TestFindBatchEdgeCases(t *testing.T) {
	keys := batchKeys(1000, 3, 0)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	// Empty batch: no results, no panic, works with nil and non-nil out.
	if got := tab.FindBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	if got := tab.FindBatch([]uint64{}, make([]int, 4)); len(got) != 0 {
		t.Fatalf("empty batch with out returned %d results", len(got))
	}
	// Output slice reuse: results land in the provided backing array.
	out := make([]int, 3)
	qs := []uint64{0, keys[500], ^uint64(0)}
	got := tab.FindBatch(qs, out)
	if &got[0] != &out[0] {
		t.Fatal("FindBatch did not reuse the provided output slice")
	}
	// Undersized out falls back to allocation.
	got = tab.FindBatch(qs, make([]int, 1))
	if len(got) != len(qs) {
		t.Fatalf("undersized out: got %d results, want %d", len(got), len(qs))
	}
	for i, q := range qs {
		if want := tab.Find(q); got[i] != want {
			t.Fatalf("edge query %d: got %d want %d", q, got[i], want)
		}
	}

	// Empty table: every lower bound is 0.
	empty, err := Build(nil, cdfmodel.NewInterpolation([]uint64(nil)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := empty.FindBatch([]uint64{1, 2, 3}, nil)
	for i, r := range res {
		if r != 0 {
			t.Fatalf("empty table FindBatch[%d] = %d, want 0", i, r)
		}
	}
	pos, found := empty.LookupBatch([]uint64{9}, nil, nil)
	if pos[0] != 0 || found[0] {
		t.Fatalf("empty table LookupBatch = (%d,%v), want (0,false)", pos[0], found[0])
	}
}

// TestFindBatchAfterLoad ensures a deserialized layer (whose drift arrays
// are reconstructed by readDrifts, not packDrifts) answers batches
// identically — guarding the width cache across the serialize round-trip.
func TestFindBatchAfterLoad(t *testing.T) {
	keys := batchKeys(8_000, 5, 3)
	model := cdfmodel.NewInterpolation(keys)
	tab, err := Build(keys, model, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes(), keys, model)
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries(keys, 5_000, 23)
	want := tab.FindBatch(qs, nil)
	got := loaded.FindBatch(qs, nil)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("loaded FindBatch[%d] = %d, built = %d", i, got[i], want[i])
		}
	}
}
