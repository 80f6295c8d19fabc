package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/dataset"
	"repro/internal/kv"
)

// chaosModel is deliberately non-monotone: it scrambles predictions with a
// multiplicative hash. It exercises the §3.8 fallback path (hint windows +
// global validation + exponential rescue).
type chaosModel struct{ n int }

func (m chaosModel) Predict(k uint64) int {
	if m.n == 0 {
		return 0
	}
	return int((k * 0x9E3779B97F4A7C15) % uint64(m.n))
}
func (m chaosModel) Monotone() bool { return false }
func (m chaosModel) SizeBytes() int { return 8 }
func (m chaosModel) Name() string   { return "chaos" }

// constModel predicts the same position for every key: the worst possible
// congestion case (§3.6: "a congestion of keys in a small sub-range").
type constModel struct{ pos, n int }

func (m constModel) Predict(uint64) int { return m.pos }
func (m constModel) Monotone() bool     { return true }
func (m constModel) SizeBytes() int     { return 8 }
func (m constModel) Name() string       { return "const" }

func buildConfigs(n int) []Config {
	return []Config{
		{Mode: ModeRange},                      // R-1, the paper's default
		{Mode: ModeRange, M: n/2 + 1},          // R with compression
		{Mode: ModeRange, M: n/10 + 1},         //
		{Mode: ModeRange, M: 7},                // extreme compression
		{Mode: ModeMidpoint},                   // S-1
		{Mode: ModeMidpoint, M: n/10 + 1},      // S-10
		{Mode: ModeMidpoint, M: 13},            //
		{Mode: ModeMidpoint, SampleStride: 16}, // §3.4 sampled build
	}
}

func checkAllQueries(t *testing.T, label string, keys []uint64, tab *Table[uint64], rng *rand.Rand) {
	t.Helper()
	n := len(keys)
	// Indexed keys.
	for i := 0; i < 400; i++ {
		q := keys[rng.Intn(n)]
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("%s: Find(indexed %d) = %d, want %d", label, q, got, want)
		}
	}
	// Arbitrary keys across and beyond the domain.
	maxKey := keys[n-1]
	for i := 0; i < 400; i++ {
		q := rng.Uint64()
		if i%3 == 0 && maxKey > 0 {
			q %= maxKey + 2 // concentrate around the populated range
		}
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("%s: Find(%d) = %d, want %d", label, q, got, want)
		}
	}
	// Boundary probes.
	for _, q := range []uint64{0, keys[0], keys[0] + 1, maxKey, maxKey + 1, ^uint64(0)} {
		if q < keys[0] && keys[0] == 0 {
			continue
		}
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("%s: Find(boundary %d) = %d, want %d", label, q, got, want)
		}
	}
}

func TestFindMatchesReferenceAcrossEverything(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(42))
	for _, name := range dataset.Names {
		keys := dataset.MustGenerate(name, 64, n, 17)
		models := []cdfmodel.Model[uint64]{
			cdfmodel.NewInterpolation(keys),
			cdfmodel.NewLinear(keys),
			cdfmodel.NewCubic(keys),
			chaosModel{n},
			constModel{n / 2, n},
		}
		for _, model := range models {
			for _, cfg := range buildConfigs(n) {
				tab, err := Build(keys, model, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, model.Name(), err)
				}
				label := string(name) + "/" + model.Name() + "/" + tab.Mode().String()
				checkAllQueries(t, label, keys, tab, rng)
			}
		}
	}
}

func TestFindMatchesReference32Bit(t *testing.T) {
	keys64 := dataset.MustGenerate(dataset.Face, 32, 3000, 5)
	keys := dataset.U32(keys64)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		q := uint32(rng.Uint64())
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("32-bit Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestDuplicatesLowerBoundSemantics(t *testing.T) {
	// Heavy duplication: every key appears 1-20 times (§3.2).
	rng := rand.New(rand.NewSource(8))
	var keys []uint64
	k := uint64(0)
	for len(keys) < 2000 {
		k += uint64(1 + rng.Intn(50))
		run := 1 + rng.Intn(20)
		for j := 0; j < run; j++ {
			keys = append(keys, k)
		}
	}
	for _, cfg := range buildConfigs(len(keys)) {
		tab, err := Build(keys, cdfmodel.NewInterpolation(keys), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			q := uint64(rng.Intn(int(keys[len(keys)-1]) + 10))
			want := kv.LowerBound(keys, q)
			if got := tab.Find(q); got != want {
				t.Fatalf("cfg %v/%d: Find(dup %d) = %d, want %d", cfg.Mode, cfg.M, q, got, want)
			}
			// Lower bound of an indexed duplicate must be the first of its run.
			if pos, found := tab.Lookup(keys[rng.Intn(len(keys))]); found {
				if pos > 0 && keys[pos-1] == keys[pos] {
					t.Fatalf("Lookup returned non-first duplicate at %d", pos)
				}
			}
		}
	}
}

func TestEdgeCaseSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 7, 16, 100} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i * 37)
		}
		for _, cfg := range []Config{{Mode: ModeRange}, {Mode: ModeMidpoint}, {Mode: ModeRange, M: 1}, {Mode: ModeMidpoint, M: 1}} {
			tab, err := Build(keys, cdfmodel.NewInterpolation(keys), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for q := uint64(0); q < uint64(n*37+5); q++ {
				if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
					t.Fatalf("n=%d cfg=%v/%d: Find(%d) = %d, want %d", n, cfg.Mode, cfg.M, q, got, want)
				}
			}
			_ = rng
		}
	}
}

func TestEmptyKeys(t *testing.T) {
	model := cdfmodel.NewInterpolation[uint64](nil)
	for _, mode := range []Mode{ModeRange, ModeMidpoint} {
		tab, err := Build(nil, model, Config{Mode: mode, M: 7, SampleStride: 3})
		if err != nil {
			t.Fatal(err)
		}
		// The empty table's layer blob views back, and writes back byte
		// for byte.
		blob := layerBlob(t, tab)
		loaded, err := viewLayer(blob, []uint64(nil), model)
		if err != nil {
			t.Fatalf("%v: the empty layer blob does not view: %v", mode, err)
		}
		if loaded.Mode() != mode || !bytes.Equal(layerBlob(t, loaded), blob) {
			t.Errorf("%v: the viewed empty layer is mode %v or writes back other bytes", mode, loaded.Mode())
		}
		if got := tab.Find(5); got != 0 {
			t.Errorf("%v: empty Find = %d, want 0", mode, got)
		}
		if tab.AvgError() != 0 || tab.MeasuredError() != 0 {
			t.Errorf("%v: empty table should report zero error", mode)
		}
		// The empty window at 0: inclusive [0, -1] in range mode, the
		// degenerate [0, 0] in midpoint mode.
		wantHi := 0
		if mode == ModeRange {
			wantHi = -1
		}
		if lo, hi := tab.Window(5); lo != 0 || hi != wantHi {
			t.Errorf("%v: empty Window = (%d, %d), want (0, %d)", mode, lo, hi, wantHi)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	keys := []uint64{1, 2, 3}
	if _, err := Build[uint64](keys, nil, Config{}); err == nil {
		t.Error("want error for nil model")
	}
	if _, err := Build([]uint64{3, 1, 2}, cdfmodel.NewInterpolation(keys), Config{}); err == nil {
		t.Error("want error for unsorted keys")
	}
	// An invalid config fails over zero keys too: an empty table's layer
	// blob records the config, and viewLayer refuses an invalid one.
	for _, keys := range [][]uint64{keys, nil} {
		if _, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{M: -4}); err == nil {
			t.Errorf("%d keys: want error for negative M", len(keys))
		}
		if _, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{SampleStride: -1}); err == nil {
			t.Errorf("%d keys: want error for negative stride", len(keys))
		}
		if _, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: Mode(99)}); err == nil {
			t.Errorf("%d keys: want error for unknown mode", len(keys))
		}
	}
}

func TestFindRange(t *testing.T) {
	keys := []uint64{10, 20, 20, 30, 40, 50}
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b        uint64
		first, last int
	}{
		{15, 35, 1, 4},         // {20,20,30}
		{20, 20, 1, 3},         // both duplicates
		{0, 9, 0, 0},           // before everything
		{51, 99, 6, 6},         // after everything
		{10, 50, 0, 6},         // everything
		{30, 10, 0, 0},         // inverted range
		{45, ^uint64(0), 5, 6}, // open-ended top
	}
	for _, c := range cases {
		first, last := tab.FindRange(c.a, c.b)
		if first != c.first || last != c.last {
			t.Errorf("FindRange(%d,%d) = [%d,%d), want [%d,%d)", c.a, c.b, first, last, c.first, c.last)
		}
	}
}

func TestModelFindAgainstReference(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 3000, 3)
	model := cdfmodel.NewInterpolation(keys)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		q := rng.Uint64()
		if got, want := ModelFind(keys, model, q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("ModelFind(%d) = %d, want %d", q, got, want)
		}
	}
	if got := ModelFind(nil, cdfmodel.NewInterpolation[uint64](nil), 9); got != 0 {
		t.Errorf("ModelFind on empty = %d, want 0", got)
	}
}

func TestShiftTableReducesError(t *testing.T) {
	// §3.6 / Fig. 6: on osmc with a plain linear model the correction layer
	// must reduce the error dramatically. The reduction factor grows with
	// scale (the paper reports 28M→129 at 200M keys; at this test's 200k
	// keys our osmc stand-in gives ~3200→~86); clustered spatial data is
	// the paper's congestion case (§3.6), so the factor here is the
	// smallest across datasets.
	keys := dataset.MustGenerate(dataset.Osmc, 64, 200000, 7)
	model := cdfmodel.NewLinear(keys)
	tab, err := Build(keys, model, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := ModelError(keys, model)
	after := tab.MeasuredError()
	if before < 100 {
		t.Fatalf("test premise broken: linear model error %.1f unexpectedly small on osmc", before)
	}
	if after*20 > before {
		t.Errorf("Shift-Table error %.2f not ≪ model error %.2f", after, before)
	}
	// Eq. 8's analytic estimate must also sit far below the model error.
	if est := tab.AvgError(); est*10 > before {
		t.Errorf("Eq. 8 estimate %.2f should be far below model error %.2f", est, before)
	}
}

func TestAvgErrorEq8Manually(t *testing.T) {
	// A constant model funnels all n keys into one partition: Eq. 8 gives
	// ē = n²/(2n) = n/2.
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i)
	}
	tab, err := Build(keys, constModel{50, 100}, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.AvgError(); got != 50 {
		t.Errorf("Eq. 8 for constant model = %.1f, want 50", got)
	}
}

func TestStats(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 5000, 3)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.ComputeStats()
	if s.N != 5000 || s.M != 5000 || s.Mode != ModeRange {
		t.Errorf("stats identity fields wrong: %+v", s)
	}
	if s.MaxCount < 1 {
		t.Error("MaxCount must be at least 1 on non-empty data")
	}
	if s.EmptyParts <= 0 {
		t.Error("face data should leave some partitions empty under IM")
	}
	if s.MeanAbsDrift <= 0 {
		t.Error("IM must have non-zero drift on face data")
	}
	if s.SizeBytes <= 0 || s.EntryBits == 0 {
		t.Error("size accounting missing")
	}
	if s.AvgErrEq8 < 0 || s.MeanLog2Bounds < 0 {
		t.Error("error stats must be non-negative")
	}
}

func TestDriftSeriesShape(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 3000, 3)
	tab, err := Build(keys, cdfmodel.NewLinear(keys), Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	before, after := DriftSeries(tab)
	if len(before) != 3000 || len(after) != 3000 {
		t.Fatal("series length mismatch")
	}
	var sb, sa float64
	for i := range before {
		if before[i] < 0 || after[i] < 0 {
			t.Fatal("absolute errors must be non-negative")
		}
		sb += float64(before[i])
		sa += float64(after[i])
	}
	if sa >= sb {
		t.Errorf("corrected error sum %.0f not below model error sum %.0f", sa, sb)
	}
}

func TestEntryWidthSelection(t *testing.T) {
	// Tiny drifts pack into 8-bit entries; a constant model on a larger
	// array needs wider entries (§3.9).
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	tab, _ := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange})
	if got := tab.EntryBits(); got != 8 {
		t.Errorf("near-perfect model should pack 8-bit entries, got %d", got)
	}
	tab, _ = Build(keys, constModel{500, 1000}, Config{Mode: ModeRange})
	if got := tab.EntryBits(); got < 16 {
		t.Errorf("constant model drifts need ≥16-bit entries, got %d", got)
	}
	// Size accounting follows the width.
	if tab.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
}

func TestSampledBuildStillCorrect(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 64, 10000, 5)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeMidpoint, SampleStride: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		q := rng.Uint64() % (keys[len(keys)-1] + 5)
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("sampled Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestWindowContainsAnswerForMonotoneModels(t *testing.T) {
	// The correctness guarantee behind range mode (§3.1, DESIGN.md §4):
	// for a monotone model the answer is always inside [lo, hi+1].
	keys := dataset.MustGenerate(dataset.Wiki, 64, 5000, 5)
	rng := rand.New(rand.NewSource(10))
	for _, m := range []int{0, 500, 13} {
		tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			q := rng.Uint64() % (keys[len(keys)-1] + 10)
			lo, hi := tab.Window(q)
			want := kv.LowerBound(keys, q)
			if want < lo || want > hi+1 {
				t.Fatalf("M=%d: answer %d outside window [%d,%d+1] for q=%d", m, want, lo, hi, q)
			}
		}
	}
}

// TestLayerFootprint: a range layer holds M+1 lower bounds and a midpoint
// layer M shifts, each at its packed width, and SizeBytes reports exactly
// those bytes. At equal widths the range layer is one entry larger (§3.4
// halved the stored <Δ, C> pairs; a lower bound per partition is the
// same count as a shift).
func TestLayerFootprint(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 8000, 5)
	model := cdfmodel.NewInterpolation(keys)
	for _, m := range []int{0, 2000} {
		r, _ := Build(keys, model, Config{Mode: ModeRange, M: m})
		s, _ := Build(keys, model, Config{Mode: ModeMidpoint, M: m})
		if want := (r.M() + 1) * r.EntryBits() / 8; r.SizeBytes() != want {
			t.Errorf("M=%d: R footprint %d, want %d", r.M(), r.SizeBytes(), want)
		}
		if want := s.M() * s.EntryBits() / 8; s.SizeBytes() != want {
			t.Errorf("M=%d: S footprint %d, want %d", s.M(), s.SizeBytes(), want)
		}
		if r.EntryBits() == s.EntryBits() && r.SizeBytes() != s.SizeBytes()+r.EntryBits()/8 {
			t.Errorf("M=%d: R footprint %d should be S's %d plus one entry", r.M(), r.SizeBytes(), s.SizeBytes())
		}
	}
}

// TestAnalysisReadersMatchBruteForce pins every reader of the partition
// counts — AvgError, ComputeStats, Log2Error, EstimateWith and
// EstimateWithout — to the formulas evaluated over counts and bounds
// brute-forced by storedBounds, in both modes, at M = N and M = N/4, on
// the IM, linear and cubic models. Where the table trusts its windows the
// window widths are the stored <lo, hi> pairs; the cubic model's are the
// derived windows its lookups search.
func TestAnalysisReadersMatchBruteForce(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 12_000, 7)
	l := func(s int) float64 { return 36 + 20*math.Log2(float64(s)) }
	for _, model := range []cdfmodel.Model[uint64]{
		cdfmodel.NewInterpolation(keys), cdfmodel.NewLinear(keys), cdfmodel.NewCubic(keys),
	} {
		for _, cfg := range []Config{
			{Mode: ModeRange}, {Mode: ModeRange, M: len(keys) / 4},
			{Mode: ModeMidpoint}, {Mode: ModeMidpoint, M: len(keys) / 4},
		} {
			name := fmt.Sprintf("%s/%v/M=%d", model.Name(), cfg.Mode, cfg.M)
			tab, err := Build(keys, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tab.monotone != model.Monotone() {
				t.Fatalf("%s: monotone = %v", name, tab.monotone)
			}
			lo, hi, cnt := storedBounds(tab)
			n := float64(len(keys))
			var sq, log2, with, without float64
			empty, most := 0, 0
			for k, c := range cnt {
				if c == 0 {
					empty++
					continue
				}
				most = max(most, int(c))
				cf := float64(c)
				sq += cf * cf
				with += cf * l(int(c))
				drift := tab.drift.get(k)
				if cfg.Mode == ModeRange {
					wlo, whi := lo[k], hi[k]
					if !tab.monotone {
						a, b := tab.window(0, k)
						wlo, whi = int64(a), int64(b)
					}
					log2 += cf * math.Log2(float64(max(whi-wlo+1, 1)))
					drift = int(lo[k]) + int(c)/2
				}
				without += cf * l(max(drift, -drift, 1))
			}
			check := func(what string, got, want float64) {
				if got != want {
					t.Errorf("%s: %s = %v, brute force gives %v", name, what, got, want)
				}
			}
			check("AvgError", tab.AvgError(), sq/(2*n))
			check("Log2Error", tab.Log2Error(), log2/n)
			check("EstimateWith", tab.EstimateWith(5, 40, l).TotalNs, 45+with/n)
			check("EstimateWithout", tab.EstimateWithout(5, l).TotalNs, 5+without/n)
			s := tab.ComputeStats()
			check("Stats.AvgErrEq8", s.AvgErrEq8, sq/(2*n))
			check("Stats.MeanLog2Bounds", s.MeanLog2Bounds, log2/n)
			if s.EmptyParts != empty || s.MaxCount != most {
				t.Errorf("%s: stats count %d empty partitions and a largest of %d, brute force %d and %d",
					name, s.EmptyParts, s.MaxCount, empty, most)
			}
		}
	}
}

func TestCompressionDegradesError(t *testing.T) {
	// Fig. 9b: shrinking the layer must not *improve* accuracy.
	keys := dataset.MustGenerate(dataset.Face, 64, 20000, 5)
	model := cdfmodel.NewInterpolation(keys)
	var prev float64 = -1
	for _, m := range []int{20000, 2000, 200, 20} {
		tab, err := Build(keys, model, Config{Mode: ModeMidpoint, M: m})
		if err != nil {
			t.Fatal(err)
		}
		e := tab.MeasuredError()
		if prev >= 0 && e < prev {
			t.Errorf("M=%d error %.2f below larger layer's %.2f", m, e, prev)
		}
		prev = e
	}
}

func TestSortQueriesAgainstStdlib(t *testing.T) {
	// Cross-validation sweep: random small arrays, every query in domain.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(100))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, cfg := range []Config{{Mode: ModeRange}, {Mode: ModeMidpoint}, {Mode: ModeRange, M: 3}} {
			tab, err := Build(keys, cdfmodel.NewInterpolation(keys), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for q := uint64(0); q <= 101; q++ {
				want := sort.Search(n, func(i int) bool { return keys[i] >= q })
				if got := tab.Find(q); got != want {
					t.Fatalf("trial %d cfg %v/%d: Find(%d) = %d, want %d (keys=%v)",
						trial, cfg.Mode, cfg.M, q, got, want, keys)
				}
			}
		}
	}
}
