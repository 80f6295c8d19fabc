// Integration tests: every index in the repository answers the same
// lower-bound queries over the same datasets, cross-validated against the
// stdlib reference and against each other.
package repro_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/cdfmodel"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/router"
)

// TestAllIndexesAgree builds every Table 2 method over every dataset at
// integration scale and checks thousands of lookups against the reference.
func TestAllIndexesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration scale")
	}
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	for _, spec := range dataset.Table2 {
		keys64, err := dataset.Generate(spec.Name, spec.Bits, n, 99)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec.String(), func(t *testing.T) {
			if spec.Bits == 32 {
				agreeOn(t, dataset.U32(keys64), rng)
			} else {
				agreeOn(t, keys64, rng)
			}
		})
	}
}

func agreeOn[K kv.Key](t *testing.T, keys []K, rng *rand.Rand) {
	t.Helper()
	queries := make([]K, 3000)
	expect := make([]int, len(queries))
	maxKey := keys[len(keys)-1]
	for i := range queries {
		var q K
		switch i % 3 {
		case 0:
			q = keys[rng.Intn(len(keys))]
		case 1:
			q = K(rng.Uint64()) % (maxKey + 2)
		default:
			q = K(rng.Uint64())
		}
		queries[i] = q
		expect[i] = kv.LowerBound(keys, q)
	}
	for _, be := range index.Registry[K]() {
		if be.Applicable(keys) != "" {
			continue
		}
		ix, err := be.Build(keys)
		if err != nil {
			t.Fatalf("%s: %v", be.Name, err)
		}
		for i, q := range queries {
			if got := ix.Find(q); got != expect[i] {
				t.Fatalf("%s: Find(%v) = %d, want %d", be.Name, q, got, expect[i])
			}
		}
	}
	// The hybrid router composes registry backends; it must agree too.
	r, err := router.New(keys, router.Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := r.Find(q); got != expect[i] {
			t.Fatalf("router: Find(%v) = %d, want %d", q, got, expect[i])
		}
	}
}

// TestQuickShiftTableIsLowerBound is the repository's central property
// test: for arbitrary key multisets and arbitrary queries, a Shift-Table
// over the IM model implements exact lower-bound semantics in every mode.
func TestQuickShiftTableIsLowerBound(t *testing.T) {
	for _, cfg := range []core.Config{
		{Mode: core.ModeRange},
		{Mode: core.ModeMidpoint},
		{Mode: core.ModeRange, M: 17},
		{Mode: core.ModeMidpoint, M: 5},
	} {
		cfg := cfg
		f := func(vals []uint64, queries []uint64) bool {
			if len(vals) == 0 {
				return true
			}
			// Sort in place (arbitrary generator order).
			for i := 1; i < len(vals); i++ {
				for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
					vals[j], vals[j-1] = vals[j-1], vals[j]
				}
			}
			tab, err := core.Build(vals, cdfmodel.NewInterpolation(vals), cfg)
			if err != nil {
				return false
			}
			for _, q := range queries {
				if tab.Find(q) != kv.LowerBound(vals, q) {
					return false
				}
			}
			// Indexed keys must always be found at their first occurrence.
			for i, v := range vals {
				pos, found := tab.Lookup(v)
				if !found || (i > 0 && vals[pos] != v) || (pos > 0 && vals[pos-1] == v) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("cfg %v/%d: %v", cfg.Mode, cfg.M, err)
		}
	}
}

// TestQuickUpdatableMatchesMultiset drives the concurrent index — the one
// write path — with arbitrary operation sequences and compactions on a
// closed index and compares against a naive multiset.
func TestQuickUpdatableMatchesMultiset(t *testing.T) {
	f := func(initial []uint64, ops []uint16, opKeys []uint64) bool {
		for i := 1; i < len(initial); i++ {
			for j := i; j > 0 && initial[j] < initial[j-1]; j-- {
				initial[j], initial[j-1] = initial[j-1], initial[j]
			}
		}
		ix, err := concurrent.New(initial, concurrent.Config{})
		if err != nil {
			return false
		}
		ix.Close()
		ref := append([]uint64(nil), initial...)
		for i, op := range ops {
			if i >= len(opKeys) {
				break
			}
			k := opKeys[i] % 1000 // narrow domain to force collisions
			switch op % 4 {
			case 0:
				ix.Insert(k)
				j := kv.UpperBound(ref, k)
				ref = append(ref, k)
				copy(ref[j+1:], ref[j:])
				ref[j] = k
			case 1:
				got := ix.Delete(k)
				j := kv.LowerBound(ref, k)
				want := j < len(ref) && ref[j] == k
				if want {
					ref = append(ref[:j], ref[j+1:]...)
				}
				if got != want {
					return false
				}
			case 2:
				if ix.Compact() != nil {
					return false
				}
			default:
				if ix.Find(k) != kv.LowerBound(ref, k) {
					return false
				}
			}
		}
		return ix.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRangeScanConsistency checks that FindRange over the Shift-Table and
// a scan over the concurrent index enumerate identical result sets.
func TestRangeScanConsistency(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 64, 50_000, 3)
	tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a := keys[rng.Intn(len(keys))]
		b := a + uint64(rng.Intn(1_000_000))
		first, last := tab.FindRange(a, b)
		var scanned int
		ix.Scan(a, b, func(uint64) bool { scanned++; return true })
		if scanned != last-first {
			t.Fatalf("range [%d,%d]: FindRange says %d records, Scan saw %d", a, b, last-first, scanned)
		}
	}
}

// TestPaperHeadlineShape asserts the qualitative results the paper's
// abstract claims, at test scale with robust margins: the Shift-Table layer
// (a) massively improves a dummy model on real-world-like data, (b) beats
// on-the-fly binary search there, and (c) is correctly not worth it on
// dense uniform data. Each claim compares wall-clock latencies, so each
// table is built once and every configuration is timed in
// headlineRepeats interleaved rounds (the order rotating per round); a
// claim is decided on the medians, not on one round a scheduler hiccup
// can flip.
func TestPaperHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration scale")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts relative latencies")
	}
	const n = 400_000
	for _, name := range []dataset.Name{dataset.Face, dataset.Osmc, dataset.Wiki, dataset.Amzn} {
		keys := dataset.MustGenerate(name, 64, n, 123)
		model := cdfmodel.NewInterpolation(keys)
		tab, err := core.Build(keys, model, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ns := medianLatencies(t, keys,
			tab.Find,
			func(q uint64) int { return core.ModelFind(keys, model, q) },
			func(q uint64) int { return kv.LowerBound(keys, q) })
		withST, alone, bs := ns[0], ns[1], ns[2]
		if withST >= alone {
			t.Errorf("%s: IM+ST (%.0f ns) should beat IM alone (%.0f ns)", name, withST, alone)
		}
		if withST >= bs {
			t.Errorf("%s: IM+ST (%.0f ns) should beat binary search (%.0f ns)", name, withST, bs)
		}
	}
	// Dense uniform: the model alone wins and the advisor says so (§4.1).
	keys := dataset.MustGenerate(dataset.UDen, 64, n, 123)
	model := cdfmodel.NewInterpolation(keys)
	tab, err := core.Build(keys, model, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ns := medianLatencies(t, keys, tab.Find, func(q uint64) int { return core.ModelFind(keys, model, q) })
	withST, alone := ns[0], ns[1]
	// At test scale both configurations are cache-resident and within a few
	// nanoseconds, so only assert the layer is not a significant win here
	// (the paper's 40 vs 67 ns gap needs the 200M-key working set).
	if alone > withST*1.25 {
		t.Errorf("uden: IM alone (%.0f ns) should not lose to IM+ST (%.0f ns)", alone, withST)
	}
	if adv := tab.Advise(); adv.UseShiftTable {
		t.Errorf("uden: advisor should disable the layer: %+v", adv)
	}
}

// headlineRepeats is the number of interleaved timing rounds behind each
// TestPaperHeadlineShape median.
const headlineRepeats = 5

// medianLatencies times each find over one fixed workload in
// headlineRepeats interleaved rounds, rotating which goes first, and
// returns each one's median ns per lookup.
func medianLatencies(t *testing.T, keys []uint64, finds ...func(uint64) int) []float64 {
	t.Helper()
	w := bench.NewWorkload(keys, 20_000, 9)
	runs := make([][]float64, len(finds))
	for r := 0; r < headlineRepeats; r++ {
		for k := range finds {
			i := (r + k) % len(finds)
			ns, err := w.Measure(finds[i], 2)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = append(runs[i], ns)
		}
	}
	medians := make([]float64, len(finds))
	for i, ns := range runs {
		slices.Sort(ns)
		medians[i] = ns[len(ns)/2]
	}
	return medians
}

// TestConcurrentReaders checks that a built Shift-Table is safe for
// concurrent lookups (it is immutable after Build).
func TestConcurrentReaders(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 100_000, 3)
	tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20_000; i++ {
				q := keys[rng.Intn(len(keys))]
				if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
					t.Errorf("concurrent Find(%d) = %d, want %d", q, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
