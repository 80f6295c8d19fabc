package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/search"
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

// TestFindBatchConcurrentCallers splits one batch into contiguous shards
// answered by concurrent FindBatch calls on one table: each call draws its
// own lane state from the table's pool, so the shards' results must be
// bit-identical to one serial FindBatch.
func TestFindBatchConcurrentCallers(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Build(tc.keys, tc.model(tc.keys), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			qs := batchQueries(tc.keys, 30_000, 11)
			want := tab.FindBatch(qs, nil)
			for _, workers := range []int{2, 3, 7} {
				got := make([]int, len(qs))
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					lo, hi := len(qs)*w/workers, len(qs)*(w+1)/workers
					wg.Add(1)
					go func() {
						defer wg.Done()
						tab.FindBatch(qs[lo:hi], got[lo:hi])
					}()
				}
				wg.Wait()
				for i := range qs {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: sharded FindBatch[%d] = %d, serial = %d", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestLookupMatchesFindBatch checks Lookup's existence pairing against the
// batch ranks: Lookup(q) is q's FindBatch rank and whether the key there
// equals q.
func TestLookupMatchesFindBatch(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Build(tc.keys, tc.model(tc.keys), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			qs := batchQueries(tc.keys, 5_000, 13)
			ranks := tab.FindBatch(qs, nil)
			for i, q := range qs {
				r := ranks[i]
				wf := r < len(tc.keys) && tc.keys[r] == q
				if p, f := tab.Lookup(q); p != r || f != wf {
					t.Fatalf("Lookup(%d) = (%d,%v), FindBatch rank gives (%d,%v)", q, p, f, r, wf)
				}
			}
		})
	}
}

// TestFindRangeMatchesFindBatch checks FindRange against ranges computed
// from one FindBatch over both bounds of every range: [a, b] is
// [rank(a), rank(b+1)), empty when b < a and ending at n when b is the
// domain maximum (where b+1 wraps to 0).
func TestFindRangeMatchesFindBatch(t *testing.T) {
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
			bounds := append(slices.Clone(as), bs...)
			for i := range bs {
				bounds[nq+i]++
			}
			ranks := tab.FindBatch(bounds, nil)
			for i := range as {
				wf, wl := ranks[i], ranks[nq+i]
				switch {
				case bs[i] < as[i]:
					wf, wl = 0, 0
				case bs[i] == ^uint64(0):
					wl = len(tc.keys)
				}
				if f, l := tab.FindRange(as[i], bs[i]); f != wf || l != wl {
					t.Fatalf("FindRange(%d, %d) = [%d,%d), FindBatch bounds = [%d,%d)",
						as[i], bs[i], f, l, wf, wl)
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
	if pos, found := empty.Lookup(9); pos != 0 || found {
		t.Fatalf("empty table Lookup = (%d,%v), want (0,false)", pos, found)
	}
}

// TestFindBatchAfterLoad ensures a layer viewed from its persisted blob
// (whose drift array aliases the blob rather than comes from the build)
// answers batches identically — guarding the width cache across the
// serialize round trip.
func TestFindBatchAfterLoad(t *testing.T) {
	keys := batchKeys(8_000, 5, 3)
	model := cdfmodel.NewInterpolation(keys)
	tab, err := Build(keys, model, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := viewLayer(layerBlob(t, tab), keys, model)
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

// checkBatch asserts FindBatch ≡ scalar Find ≡ kv.LowerBound on qs.
func checkBatch[K kv.Key](t *testing.T, tab *Table[K], keys, qs []K) {
	t.Helper()
	got := tab.FindBatch(qs, nil)
	for i, q := range qs {
		want := kv.LowerBound(keys, q)
		if got[i] != want || tab.Find(q) != want {
			t.Fatalf("q=%d (lane %d of %d): FindBatch = %d, Find = %d, kv.LowerBound = %d",
				q, i, len(qs), got[i], tab.Find(q), want)
		}
	}
}

// windowOf returns the raw window bounds Table.Window gives q and the
// width of the clamped half-open window the batch probe searches.
func windowOf(tab *Table[uint64], q uint64) (lo, hi, width int) {
	lo, hi = tab.Window(q)
	n := tab.Len()
	end := min(hi, n-1) + 1
	return lo, hi, min(end, n) - kv.Clamp(lo, 0, n)
}

// checkDomainEdges drives 0, MaxKey-1 and MaxKey through FindBatch in
// mode, mixed with hits, on keys that stop short of both ends of the key
// domain and on the same keys widened to 0 and to MaxKey-1 and MaxKey.
func checkDomainEdges[K kv.Key](t *testing.T, mode Mode, inner []K) {
	t.Helper()
	top := kv.MaxKey[K]()
	wide := append(append([]K{0}, inner...), top-1, top)
	for _, keys := range [][]K{inner, wide} {
		tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var qs []K
		for i := 0; i < batchChunk+5; i++ {
			qs = append(qs, 0, top-1, top, keys[i*7%len(keys)])
		}
		checkBatch(t, tab, keys, qs)
	}
}

// TestFindBatchWindowShapes drives the lockstep window probe over every
// window shape it can meet: empty, 1-key, short and long windows in one
// chunk, windows clamped at 0 and at n, windows wider than 2^15 behind
// 32-bit drift entries, 1- and 2-key tables, short chunk tails, and the
// key domain's edges on 32- and 64-bit keys in both modes.
func TestFindBatchWindowShapes(t *testing.T) {
	build := func(t *testing.T, keys []uint64) *Table[uint64] {
		t.Helper()
		tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	// Uniform keys, then a dense cluster, then duplicate runs: the
	// interpolation model's error, and so the window width, varies by
	// region.
	rng := rand.New(rand.NewSource(41))
	var mixed []uint64
	v := uint64(1000)
	for i := 0; i < 30_000; i++ {
		switch {
		case i < 10_000:
			v += 900 + uint64(rng.Intn(200))
		case i < 20_000:
			v += uint64(rng.Intn(3))
		case i%7 != 0:
		default:
			v += 1 + uint64(rng.Intn(5000))
		}
		mixed = append(mixed, v)
	}

	t.Run("mixed-chunk", func(t *testing.T) {
		tab := build(t, mixed)
		// Bucket candidate queries by window width: empty, one key, the
		// scalar path's linear regime, and wider.
		var buckets [4][]uint64
		for _, q := range append(batchQueries(mixed, 20_000, 43), ^uint64(0), mixed[len(mixed)-1]+1) {
			_, _, w := windowOf(tab, q)
			b := 3
			switch {
			case w <= 0:
				b = 0
			case w == 1:
				b = 1
			case w <= search.WindowThreshold:
				b = 2
			}
			if len(buckets[b]) < batchChunk/4 {
				buckets[b] = append(buckets[b], q)
			}
		}
		for b := range buckets {
			if len(buckets[b]) == 0 {
				t.Fatalf("no query with a window of shape %d; buckets %d/%d/%d/%d", b,
					len(buckets[0]), len(buckets[1]), len(buckets[2]), len(buckets[3]))
			}
		}
		// One chunk with every shape in equal parts (most lanes search, so
		// the rounds step every lane), and one where only 1 lane in 8
		// searches (the rounds step the listed lanes only).
		var even, sparse []uint64
		for i := 0; i < batchChunk; i++ {
			b := i % 4
			even = append(even, buckets[b][i/4%len(buckets[b])])
			switch {
			case i%16 == 0:
				b = 3
			case i%16 == 8:
				b = 2
			default:
				b = i % 2
			}
			sparse = append(sparse, buckets[b][i%len(buckets[b])])
		}
		checkBatch(t, tab, mixed, even)
		checkBatch(t, tab, mixed, sparse)
	})

	t.Run("clamped", func(t *testing.T) {
		tab := build(t, mixed)
		n := len(mixed)
		qs := []uint64{0, mixed[0] - 1, mixed[0], mixed[0] + 1, mixed[1],
			mixed[n-2], mixed[n-1] - 1, mixed[n-1], mixed[n-1] + 1, ^uint64(0)}
		var atZero, atN bool
		for _, q := range qs {
			lo, hi, _ := windowOf(tab, q)
			atZero = atZero || lo <= 0
			atN = atN || hi >= n-1
		}
		if !atZero || !atN {
			t.Fatalf("clamping not exercised: at 0 %v, at n %v", atZero, atN)
		}
		checkBatch(t, tab, mixed, qs)
	})

	t.Run("32-bit-drifts", func(t *testing.T) {
		// One outlier far above a dense run: the model crowds every other
		// key into the first partitions, so drifts approach n.
		keys := make([]uint64, 0, 80_001)
		for i := 0; i < 80_000; i++ {
			keys = append(keys, uint64(1000+3*i))
		}
		keys = append(keys, 1<<62)
		tab := build(t, keys)
		if got := tab.EntryBits(); got != 32 {
			t.Fatalf("EntryBits = %d, want 32", got)
		}
		qs := append(batchQueries(keys, 3*batchChunk, 47), keys[40_000], keys[79_999]+1, 1<<61)
		wide := 0
		for _, q := range qs {
			if _, _, w := windowOf(tab, q); w > 1<<15 {
				wide++
			}
		}
		if wide == 0 {
			t.Fatal("no window wider than 2^15")
		}
		checkBatch(t, tab, keys, qs)
	})

	t.Run("tiny-tables", func(t *testing.T) {
		for _, keys := range [][]uint64{{50}, {50, 90}, {50, 50}} {
			tab := build(t, keys)
			qs := []uint64{0, 49, 50, 51, 89, 90, 91, ^uint64(0)}
			checkBatch(t, tab, keys, append(qs, qs...))
		}
	})

	t.Run("domain-edges", func(t *testing.T) {
		keys := batchKeys(5_000, 61, 0)
		keys32 := make([]uint32, len(keys))
		for i, k := range keys {
			keys32[i] = uint32(k)
		}
		for _, mode := range []Mode{ModeRange, ModeMidpoint} {
			checkDomainEdges(t, mode, keys)
			checkDomainEdges(t, mode, keys32)
		}
	})

	t.Run("chunk-tails", func(t *testing.T) {
		tab := build(t, mixed)
		for _, lanes := range []int{1, batchChunk - 1, batchChunk + 1, 2*batchChunk - 1} {
			checkBatch(t, tab, mixed, batchQueries(mixed, lanes, int64(lanes)))
		}
	})
}

// TestBatchAllocatesNothing pins the steady state of FindBatch: with a
// sized output, a batch allocates nothing, whether it fits one chunk or
// spans several with a short tail (the lane state is pooled on the Table).
func TestBatchAllocatesNothing(t *testing.T) {
	keys := batchKeys(20_000, 1, 0)
	for _, mode := range []Mode{ModeRange, ModeMidpoint} {
		tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{batchChunk, 3*batchChunk - 7} {
			qs := batchQueries(keys, lanes, 53)
			out := make([]int, len(qs))
			if a := testing.AllocsPerRun(100, func() { tab.FindBatch(qs, out) }); a != 0 {
				t.Fatalf("%s: FindBatch of %d lanes allocates %.1f times per call", mode, len(qs), a)
			}
		}
	}
}
