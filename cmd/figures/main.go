// Command figures regenerates the data series behind each figure of the
// paper's evaluation as CSV on stdout (or a summary table where the figure
// is a table-like bar chart).
//
// Usage:
//
//	figures -fig ID [-n N] [-q Q] [-seed S] [-dataset face64] [-shards K]
//
// where ID is one of the ids in the figures table below (figures -h lists
// them). Besides the paper's figures there are three pseudo-figures. "L"
// prints the §2.3 error-to-latency micro-benchmark (the L(s) curve
// parameterising the §3.7 cost model). "batch" prints the batched-query
// throughput sweep (scalar Find vs FindBatch across batch sizes, R and S
// modes). "router" builds the cost-model-routed hybrid index
// (internal/router) over a piecewise dataset and prints its latency
// against every homogeneous candidate backend, with the per-shard routing
// decisions as comment lines.
//
// All CSV output flows through the shared bench.Grid emitter, the same
// layout cmd/report renders as markdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/dataset"
)

// opts carries the command-line parameters every figure draws from; each
// figure reads only the ones it needs.
type opts struct {
	n, q, shards int
	seed         int64
	dataset      string
}

// figures is the one ordered list of figure ids: -fig help, its
// validation and the dispatch all read it.
var figures = []struct {
	id  string
	run func(opts) error
}{
	{"2a", fig2a},
	{"2b", fig2b},
	{"3", fig3},
	{"6", fig6},
	{"7", fig7},
	{"8", fig8},
	{"9", fig9},
	{"L", latencyCurve},
	{"batch", batchSweep},
	{"router", routerSweep},
}

func main() {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	idList := strings.Join(ids, ", ")
	fig := flag.String("fig", "", "figure id: "+idList)
	var o opts
	flag.IntVar(&o.n, "n", 0, "dataset size (0 = per-figure default)")
	flag.IntVar(&o.q, "q", 0, "query count (0 = per-figure default)")
	flag.Int64Var(&o.seed, "seed", 7, "dataset seed")
	flag.StringVar(&o.dataset, "dataset", "face64", "dataset for fig 8 (face64 or osmc64)")
	flag.IntVar(&o.shards, "shards", 0, "router shard count (0 = auto)")
	flag.Parse()

	for _, f := range figures {
		if f.id != *fig {
			continue
		}
		if err := f.run(o); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "figures: -fig must be one of", idList)
	os.Exit(2)
}

// emit renders a grid as CSV on stdout.
func emit(g *bench.Grid) { g.WriteCSV(os.Stdout) }

func fig2a(o opts) error {
	pts, err := bench.RunFig2a(bench.Fig2Config{N: o.n, Queries: o.q, Seed: o.seed})
	if err != nil {
		return err
	}
	g := bench.NewGrid("error", "linear_ns", "binary_ns", "exponential_ns", "binary_wo_model_ns", "fast_ns")
	verbs := []string{"%d", "%.1f", "%.1f", "%.1f", "%.1f", "%.1f"}
	for _, p := range pts {
		g.Rowf(verbs, p.Err, p.LinearNs, p.BinaryNs, p.ExpNs, p.BSNs, p.FASTNs)
	}
	emit(g)
	return nil
}

func fig2b(o opts) error {
	pts, err := bench.RunFig2b(bench.Fig2Config{N: o.n, Queries: o.q, Seed: o.seed})
	if err != nil {
		return err
	}
	g := bench.NewGrid("error", "linear_misses", "binary_misses", "exponential_misses", "binary_wo_model_misses", "fast_misses")
	verbs := []string{"%d", "%.2f", "%.2f", "%.2f", "%.2f", "%.2f"}
	for _, p := range pts {
		g.Rowf(verbs, p.Err, p.LinearMisses, p.BinaryMisses, p.ExpMisses, p.BSMisses, p.FASTMisses)
	}
	emit(g)
	return nil
}

func fig3(o opts) error {
	n := o.n
	if n == 0 {
		n = 2_000_000
	}
	series, err := bench.RunFig3(n, 500, o.seed)
	if err != nil {
		return err
	}
	g := bench.NewGrid("dataset", "scale", "key", "position")
	verbs := []string{"%s", "%s", "%d", "%d"}
	for _, s := range series {
		for i := range s.MacroKeys {
			g.Rowf(verbs, s.Spec, "macro", s.MacroKeys[i], s.MacroPos[i])
		}
		for i := range s.ZoomKeys {
			g.Rowf(verbs, s.Spec, "zoom", s.ZoomKeys[i], s.ZoomPos[i])
		}
	}
	emit(g)
	return nil
}

func fig6(o opts) error {
	n := o.n
	if n == 0 {
		n = 2_000_000
	}
	res, err := bench.RunFig6(n, 1000, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("# avg model error = %.1f records, avg corrected error = %.1f records\n", res.AvgModel, res.AvgCorrected)
	g := bench.NewGrid("position", "model_err", "corrected_err")
	verbs := []string{"%d", "%d", "%d"}
	for i := range res.Positions {
		g.Rowf(verbs, res.Positions[i], res.ModelErr[i], res.CorrectedErr[i])
	}
	emit(g)
	return nil
}

func fig7(o opts) error {
	n := o.n
	if n == 0 {
		n = 2_000_000
	}
	rows, err := bench.RunFig7(n, o.seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFig7(rows))
	return nil
}

func fig8(o opts) error {
	spec := dataset.Spec{Name: dataset.Face, Bits: 64}
	if o.dataset == "osmc64" {
		spec = dataset.Spec{Name: dataset.Osmc, Bits: 64}
	} else if o.dataset != "face64" {
		return fmt.Errorf("fig 8 supports face64 or osmc64, got %q", o.dataset)
	}
	pts, err := bench.RunFig8(bench.Fig8Config{Dataset: spec, N: o.n, Queries: o.q, Seed: o.seed})
	if err != nil {
		return err
	}
	g := bench.NewGrid("method", "size_bytes", "lookup_ns", "log2_err", "accesses", "l1_misses", "llc_misses")
	verbs := []string{"%s", "%d", "%.1f", "%.2f", "%.2f", "%.2f", "%.2f"}
	for _, p := range pts {
		g.Rowf(verbs, p.Method, p.SizeBytes, p.LookupNs, p.Log2Err, p.Accesses, p.L1Misses, p.LLCMisses)
	}
	emit(g)
	return nil
}

func fig9(o opts) error {
	res, err := bench.RunFig9(o.n, o.q, 0, o.seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func batchSweep(o opts) error {
	pts, err := bench.RunBatch(bench.BatchConfig{N: o.n, Queries: o.q, Seed: o.seed})
	if err != nil {
		return err
	}
	g := bench.NewGrid("dataset", "mode", "batch_size", "scalar_ns", "batch_ns", "speedup_batch")
	verbs := []string{"%s", "%s", "%d", "%.1f", "%.1f", "%.2f"}
	for _, p := range pts {
		g.Rowf(verbs, p.Dataset, p.Mode, p.BatchSize, p.ScalarNs, p.BatchNs, p.SpeedupBatch)
	}
	emit(g)
	return nil
}

func routerSweep(o opts) error {
	res, err := bench.RunRouter(bench.RouterConfig{N: o.n, Queries: o.q, Shards: o.shards, Seed: o.seed})
	if err != nil {
		return err
	}
	// Routing decisions ride along as comment lines, rendered by the same
	// grid emitter as the main series.
	for _, line := range strings.Split(strings.TrimRight(res.ChoicesGrid().CSV(), "\n"), "\n") {
		fmt.Println("#", line)
	}
	fmt.Printf("# distinct backends selected: %d\n", res.Distinct)
	emit(res.Grid())
	if name, best := res.BestHomogeneousNs(); best > 0 {
		fmt.Printf("# router %.1f ns vs best homogeneous %s %.1f ns (ratio %.2f)\n",
			res.RouterNs(), name, best, res.RouterNs()/best)
	}
	return nil
}

func latencyCurve(o opts) error {
	n := o.n
	if n == 0 {
		n = 4_000_000
	}
	keys, err := dataset.Generate(dataset.USpr, 64, n, o.seed)
	if err != nil {
		return err
	}
	pts := bench.MeasureLatencyCurve(keys, 1<<20, 5_000, o.seed)
	g := bench.NewGrid("window", "linear_ns", "binary_ns", "exponential_ns")
	verbs := []string{"%d", "%.1f", "%.1f", "%.1f"}
	for _, p := range pts {
		g.Rowf(verbs, p.WindowSize, p.LinearNs, p.BinaryNs, p.ExpNs)
	}
	emit(g)
	return nil
}
