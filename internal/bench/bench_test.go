package bench

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
)

// The harness tests run at reduced scale: they validate plumbing and the
// qualitative shape, not absolute numbers (those are the benchmarks' job).

func TestWorkloadValidatesResults(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5}
	w := NewWorkload(keys, 10, 1)
	if _, err := w.Measure(func(q uint64) int { return 0 }, 1); err == nil {
		t.Error("Measure must reject an index returning wrong results")
	}
	if _, err := w.Measure(func(q uint64) int {
		for i, k := range keys {
			if k >= q {
				return i
			}
		}
		return len(keys)
	}, 1); err != nil {
		t.Errorf("correct index rejected: %v", err)
	}
}

func TestRunTable2Small(t *testing.T) {
	res, err := RunTable2(Table2Config{
		N:       20_000,
		Queries: 2_000,
		Reps:    1,
		Datasets: []dataset.Spec{
			{Name: dataset.UDen, Bits: 64},
			{Name: dataset.Face, Bits: 32},
			{Name: dataset.Wiki, Bits: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	txt := res.Format()
	if !strings.Contains(txt, "uden64") || !strings.Contains(txt, "face32") {
		t.Error("formatted table missing dataset rows")
	}
	// wiki has duplicates: ART must be N/A there.
	for _, row := range res.Rows {
		if row.Spec.Name == dataset.Wiki {
			if !row.Cells["ART"].NA() {
				t.Error("ART should be N/A on wiki")
			}
		}
		if name, ns, _ := row.Winner(); name == "" || ns <= 0 {
			t.Error("winner computation broken")
		}
	}
	csv := res.CSV()
	if !strings.Contains(csv, "dataset,") || !strings.Contains(csv, "NA") {
		t.Error("CSV output malformed")
	}
}

func TestLatencyCurveShape(t *testing.T) {
	keys := dataset.MustGenerate(dataset.USpr, 64, 500_000, 3)
	// Each round is one wall-clock pass over every window size; the claims
	// are decided on the per-size medians of fig2Repeats rounds, so one
	// descheduled pass cannot flip them.
	var rounds [][]LatencyPoint
	for r := 0; r < fig2Repeats; r++ {
		points := MeasureLatencyCurve(keys, 1<<12, 2_000, int64(5+r))
		if len(points) < 10 {
			t.Fatalf("too few curve points: %d", len(points))
		}
		rounds = append(rounds, points)
	}
	median := func(col func(LatencyPoint) float64, at int) float64 {
		ns := make([]float64, len(rounds))
		for r, points := range rounds {
			ns[r] = col(points[at])
		}
		slices.Sort(ns)
		return ns[len(ns)/2]
	}
	points := make([]LatencyPoint, len(rounds[0]))
	for i := range points {
		points[i] = LatencyPoint{
			WindowSize: rounds[0][i].WindowSize,
			LinearNs:   median(func(p LatencyPoint) float64 { return p.LinearNs }, i),
			BinaryNs:   median(func(p LatencyPoint) float64 { return p.BinaryNs }, i),
			ExpNs:      median(func(p LatencyPoint) float64 { return p.ExpNs }, i),
		}
	}
	// Latency must grow with window size (allowing noise between adjacent
	// sizes, compare the ends).
	first, last := points[0], points[len(points)-1]
	if last.BinaryNs <= first.BinaryNs {
		t.Errorf("binary L(s) should grow: median %f -> %f", first.BinaryNs, last.BinaryNs)
	}
	if last.LinearNs <= first.LinearNs {
		t.Errorf("linear L(s) should grow: median %f -> %f", first.LinearNs, last.LinearNs)
	}
	fn := FitLatencyFn(points)
	if fn(1) <= 0 || fn(1000) <= fn(1) {
		t.Error("fitted latency function shape broken")
	}
	if fn(1<<20) < fn(1<<12) {
		t.Error("fitted latency must extrapolate monotonically at the top")
	}
}

func TestPlantedWorkload(t *testing.T) {
	keys := dataset.MustGenerate(dataset.USpr, 64, 100_000, 3)
	w := NewPlanted(keys, 50, 500, 7)
	for i := range w.Q {
		d := int(w.Pred[i]) - int(w.True[i])
		if d < 0 {
			d = -d
		}
		if d > 50 {
			t.Fatalf("planted error %d exceeds delta", d)
		}
	}
}

// fig2Repeats is the number of rounds behind each timing median of
// TestRunFig2Small (RunFig2a) and TestLatencyCurveShape
// (MeasureLatencyCurve): a single timing pass per search is at the mercy
// of scheduler noise.
const fig2Repeats = 5

func TestRunFig2Small(t *testing.T) {
	cfg := Fig2Config{N: 200_000, Queries: 3_000, Errors: []int{1, 100, 10_000}}
	// Every round times all searches over the same planted workloads, so
	// the compared timings interleave round by round.
	var linTiny, linLarge, binTiny, bsTiny []float64
	for r := 0; r < fig2Repeats; r++ {
		pts, err := RunFig2a(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 3 {
			t.Fatalf("points = %d, want 3", len(pts))
		}
		linTiny = append(linTiny, pts[0].LinearNs)
		linLarge = append(linLarge, pts[2].LinearNs)
		binTiny = append(binTiny, pts[0].BinaryNs)
		bsTiny = append(bsTiny, pts[0].BSNs)
	}
	median := func(ns []float64) float64 {
		slices.Sort(ns)
		return ns[len(ns)/2]
	}
	// Shape: local search cost grows with error; at tiny error the local
	// searches beat full binary search.
	if a, b := median(linTiny), median(linLarge); a >= b {
		t.Errorf("linear local search should degrade with error: median %.1f -> %.1f ns", a, b)
	}
	if a, b := median(binTiny), median(bsTiny); a >= b {
		t.Errorf("tiny-error bounded search should beat full binary search: median %.1f vs %.1f ns", a, b)
	}
	// The miss measurement needs a working set beyond the simulated 8 MB
	// LLC (as the paper's 200M keys are beyond its machine's), otherwise
	// large scans keep the whole array resident and misses vanish.
	mpts, err := RunFig2b(Fig2Config{N: 4_000_000, Queries: 4_000, Errors: []int{1, 100, 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	if mpts[0].LinearMisses >= mpts[2].LinearMisses {
		t.Errorf("linear misses should grow with error: %.2f -> %.2f", mpts[0].LinearMisses, mpts[2].LinearMisses)
	}
	if mpts[0].BinaryMisses >= mpts[0].BSMisses {
		t.Error("tiny-error bounded search should miss less than full binary search")
	}
}

func TestRunFig3Small(t *testing.T) {
	series, err := RunFig3(20_000, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	for _, s := range series {
		if len(s.MacroKeys) < 50 || len(s.ZoomKeys) < 2 {
			t.Errorf("%s: series too short (%d macro, %d zoom)", s.Spec, len(s.MacroKeys), len(s.ZoomKeys))
		}
	}
}

func TestRunFig6Small(t *testing.T) {
	res, err := RunFig6(100_000, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgCorrected*10 > res.AvgModel {
		t.Errorf("Fig 6 shape: corrected %.1f not ≪ model %.1f", res.AvgCorrected, res.AvgModel)
	}
	if len(res.Positions) < 100 {
		t.Error("series too short")
	}
}

func TestRunFig7Small(t *testing.T) {
	rows, err := RunFig7(20_000, 3, []dataset.Spec{
		{Name: dataset.Face, Bits: 64},
		{Name: dataset.USpr, Bits: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("too few build-time rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanMs < 0 || r.StdevMs < 0 {
			t.Errorf("%s: negative stats", r.Method)
		}
	}
	if !strings.Contains(FormatFig7(rows), "IM+ST") {
		t.Error("formatted output missing IM+ST")
	}
}

func TestRunFig8Small(t *testing.T) {
	pts, err := RunFig8(Fig8Config{N: 100_000, Queries: 4_000, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]Fig8Point{}
	for _, p := range pts {
		byMethod[p.Method] = append(byMethod[p.Method], p)
		if p.SizeBytes <= 0 || p.LookupNs <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Method, p)
		}
	}
	for _, m := range []string{"RS", "RMI", "B+tree", "RBS", "IM+ST", "RS+ST"} {
		if len(byMethod[m]) < 2 && m != "RS+ST" {
			t.Errorf("method %s missing sweep points", m)
		}
	}
	// RS: tighter epsilon → bigger spline → lower log2 error.
	rs := byMethod["RS"]
	if rs[0].SizeBytes <= rs[len(rs)-1].SizeBytes {
		t.Error("RS sweep should start big (eps=4) and shrink")
	}
	if rs[0].Log2Err >= rs[len(rs)-1].Log2Err {
		t.Error("RS log2 error should grow as the spline shrinks")
	}
}

func TestRunFig9Small(t *testing.T) {
	res, err := RunFig9(50_000, 4_000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(dataset.Fig9) {
		t.Fatalf("datasets = %d, want %d", len(res.Cells), len(dataset.Fig9))
	}
	// Shape (Fig. 9b): error grows monotonically with compression, and the
	// bare model is worst, on every non-trivial dataset.
	for spec, cells := range res.Cells {
		if spec == "uden32" {
			continue // near-zero error everywhere
		}
		if !(cells["S-1"].AvgErr <= cells["S-100"].AvgErr) {
			t.Errorf("%s: S-1 err %.1f should be <= S-100 %.1f", spec, cells["S-1"].AvgErr, cells["S-100"].AvgErr)
		}
		if !(cells["S-1000"].AvgErr <= cells["none"].AvgErr+1) {
			t.Errorf("%s: even S-1000 (%.1f) should not exceed the bare model (%.1f)",
				spec, cells["S-1000"].AvgErr, cells["none"].AvgErr)
		}
	}
	if !strings.Contains(res.Format(), "Fig. 9a") {
		t.Error("format output broken")
	}
}

func TestZipfWorkload(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 50_000, 3)
	w := NewZipfWorkload(keys, 5_000, 1.5, 7)
	if len(w.Queries) != 5_000 {
		t.Fatalf("got %d queries", len(w.Queries))
	}
	// Validation still works and skew is visible: the most frequent query
	// should dominate far beyond the uniform expectation.
	counts := map[uint64]int{}
	for i, q := range w.Queries {
		if int(w.Expect[i]) >= len(keys) || keys[w.Expect[i]] != q {
			t.Fatalf("expectation broken at %d", i)
		}
		counts[q]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 50 { // uniform expectation would be ~1
		t.Errorf("zipf workload not skewed: hottest key queried %d times", max)
	}
	if _, err := w.Measure(func(q uint64) int { return kv.LowerBound(keys, q) }, 1); err != nil {
		t.Fatal(err)
	}
}
