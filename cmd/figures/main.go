// Command figures regenerates the data series behind each figure of the
// paper's evaluation as CSV on stdout (or a summary table where the figure
// is a table-like bar chart).
//
// Usage:
//
//	figures -fig 2a|2b|3|6|7|8|9|L|batch|concurrent|router [-n N] [-q Q]
//	        [-seed S] [-dataset face64]
//
// The "L" pseudo-figure prints the §2.3 error-to-latency micro-benchmark
// (the L(s) curve parameterising the §3.7 cost model). The "batch"
// pseudo-figure prints the batched-query throughput sweep (scalar Find vs
// FindBatch vs FindBatchParallel across batch sizes, R and S modes) as CSV.
// The "concurrent" pseudo-figure prints the mixed read/write throughput
// sweep over internal/concurrent (reader counts × background compaction
// on or off, with reads completed during in-flight compactions) as CSV in
// a "compaction" column of "background" or "off". The "router"
// pseudo-figure builds the cost-model-routed hybrid index
// (internal/router) over a piecewise dataset and prints its latency
// against every homogeneous candidate backend, with the per-shard routing
// decisions as comment lines. The "persist" pseudo-figure prints the
// snapshot sweep (cold build vs save vs warm load per backend, every
// loaded index verified bit-identical before its time is reported). The
// "replica" pseudo-figure prints the replication sweep (publish → fetch →
// verify → swap per version, delta vs full artifact sizes, cold sync vs
// crash/warm-restart time; every synced version oracle-verified) and
// writes BENCH_replica.json. The "serve" pseudo-figure stands up the
// whole networked serving tier in-process (publisher → store → replica →
// hardened HTTP server) and prints throughput and p50/p99/p999 latency
// for coalesced vs per-request dispatch under live publishing, every
// response oracle-verified by version tag; it writes BENCH_serve.json.
// The "mmap" pseudo-figure compares restart paths for the page-aligned v2
// snapshot layout (cold build vs streaming load vs mapped open of the
// same file, per backend), measures cold-shard first-touch latency on a
// mapped router, sweeps a residency budget over the router's shard
// spans, and writes BENCH_mmap.json.
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

func main() {
	fig := flag.String("fig", "", "figure id: 2a, 2b, 3, 6, 7, 8, 9, L, batch, build, concurrent, router, persist, replica, serve, mmap")
	n := flag.Int("n", 0, "dataset size (0 = per-figure default)")
	q := flag.Int("q", 0, "query count (0 = per-figure default)")
	seed := flag.Int64("seed", 7, "dataset seed")
	ds := flag.String("dataset", "face64", "dataset for fig 8 (face64 or osmc64)")
	shards := flag.Int("shards", 0, "router shard count (0 = auto)")
	jsonPath := flag.String("json", "auto", "figs build/replica: JSON output path (auto = BENCH_<fig>.json, empty = skip)")
	flag.Parse()

	var err error
	switch *fig {
	case "2a":
		err = fig2a(*n, *q, *seed)
	case "2b":
		err = fig2b(*n, *q, *seed)
	case "3":
		err = fig3(*n, *seed)
	case "6":
		err = fig6(*n, *seed)
	case "7":
		err = fig7(*n, *seed)
	case "8":
		err = fig8(*n, *q, *seed, *ds)
	case "9":
		err = fig9(*n, *q, *seed)
	case "L":
		err = latencyCurve(*n, *seed)
	case "batch":
		err = batchSweep(*n, *q, *seed)
	case "build":
		err = buildSweep(*n, *seed, jsonOut(*jsonPath, "BENCH_build.json"))
	case "concurrent":
		err = concurrentSweep(*n, *seed)
	case "router":
		err = routerSweep(*n, *q, *shards, *seed)
	case "persist":
		err = persistSweep(*n, *q, *seed)
	case "replica":
		err = replicaSweep(*n, *q, *seed, jsonOut(*jsonPath, "BENCH_replica.json"))
	case "serve":
		err = serveSweep(*n, *q, *seed, jsonOut(*jsonPath, "BENCH_serve.json"))
	case "mmap":
		err = mmapSweep(*n, *q, *seed, jsonOut(*jsonPath, "BENCH_mmap.json"))
	default:
		fmt.Fprintln(os.Stderr, "figures: -fig must be one of 2a, 2b, 3, 6, 7, 8, 9, L, batch, build, concurrent, router, persist, replica, serve, mmap")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// emit renders a grid as CSV on stdout.
func emit(g *bench.Grid) { g.WriteCSV(os.Stdout) }

func fig2a(n, q int, seed int64) error {
	pts, err := bench.RunFig2a(bench.Fig2Config{N: n, Queries: q, Seed: seed})
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

func fig2b(n, q int, seed int64) error {
	pts, err := bench.RunFig2b(bench.Fig2Config{N: n, Queries: q, Seed: seed})
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

func fig3(n int, seed int64) error {
	if n == 0 {
		n = 2_000_000
	}
	series, err := bench.RunFig3(n, 500, seed)
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

func fig6(n int, seed int64) error {
	if n == 0 {
		n = 2_000_000
	}
	res, err := bench.RunFig6(n, 1000, seed)
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

func fig7(n int, seed int64) error {
	if n == 0 {
		n = 2_000_000
	}
	rows, err := bench.RunFig7(n, seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFig7(rows))
	return nil
}

func fig8(n, q int, seed int64, ds string) error {
	spec := dataset.Spec{Name: dataset.Face, Bits: 64}
	if ds == "osmc64" {
		spec = dataset.Spec{Name: dataset.Osmc, Bits: 64}
	} else if ds != "face64" {
		return fmt.Errorf("fig 8 supports face64 or osmc64, got %q", ds)
	}
	pts, err := bench.RunFig8(bench.Fig8Config{Dataset: spec, N: n, Queries: q, Seed: seed})
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

func fig9(n, q int, seed int64) error {
	res, err := bench.RunFig9(n, q, 0, seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func batchSweep(n, q int, seed int64) error {
	pts, err := bench.RunBatch(bench.BatchConfig{N: n, Queries: q, Seed: seed})
	if err != nil {
		return err
	}
	g := bench.NewGrid("dataset", "mode", "batch_size", "scalar_ns", "batch_ns", "parallel_ns", "speedup_batch", "speedup_parallel")
	verbs := []string{"%s", "%s", "%d", "%.1f", "%.1f", "%.1f", "%.2f", "%.2f"}
	for _, p := range pts {
		g.Rowf(verbs, p.Dataset, p.Mode, p.BatchSize, p.ScalarNs, p.BatchNs, p.ParallelNs, p.SpeedupBatch, p.SpeedupParallel)
	}
	emit(g)
	return nil
}

func buildSweep(n int, seed int64, jsonPath string) error {
	res, err := bench.RunBuildSweep(bench.BuildSweepConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("# build sweep: n=%d gomaxprocs=%d numcpu=%d (every built table validated against reference ranks)\n",
		res.N, res.GoMaxProcs, res.NumCPU)
	emit(res.Grid())
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", jsonPath)
	}
	return nil
}

func concurrentSweep(n int, seed int64) error {
	pts, err := bench.RunConcurrent(bench.ConcurrentConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	g := bench.NewGrid("dataset", "compaction", "readers", "reads_per_sec", "writes_per_sec", "rebuilds", "reads_during_compaction")
	verbs := []string{"%s", "%s", "%d", "%.0f", "%.0f", "%d", "%d"}
	for _, p := range pts {
		g.Rowf(verbs, p.Dataset, p.Compaction, p.Readers, p.ReadsPerSec, p.WritesPerSec, p.Rebuilds, p.ReadsDuringCompaction)
	}
	emit(g)
	return nil
}

func routerSweep(n, q, shards int, seed int64) error {
	res, err := bench.RunRouter(bench.RouterConfig{N: n, Queries: q, Shards: shards, Seed: seed})
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

// jsonOut resolves the -json flag: "auto" means the per-figure default.
func jsonOut(flagVal, def string) string {
	if flagVal == "auto" {
		return def
	}
	return flagVal
}

func replicaSweep(n, q int, seed int64, jsonPath string) error {
	res, err := bench.RunReplication(bench.ReplicationConfig{N: n, Queries: q, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("# replication sweep: n=%d rounds=%d (every synced version oracle-verified before timing is reported)\n", res.N, res.Rounds)
	fmt.Printf("# mean artifact: full %.1f KB, delta %.1f KB; cold sync %.1f ms, warm restart %.1f ms (version %d, store offline)\n",
		res.FullKB, res.DeltaKB, res.ColdSyncMs, res.WarmRestartMs, res.WarmVersion)
	emit(res.Grid())
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", jsonPath)
	}
	return nil
}

func serveSweep(n, q int, seed int64, jsonPath string) error {
	res, err := bench.RunServe(bench.ServeConfig{N: n, Pool: q, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("# serving-tier sweep: n=%d workers=%d open-loop %g qps (every response oracle-verified by version tag; %d versions published mid-run)\n",
		res.N, res.Workers, res.RateQPS, res.Published)
	fmt.Printf("# coalesced closed-loop throughput %.2fx per-request dispatch\n", res.CoalesceSpeedup)
	emit(res.Grid())
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", jsonPath)
	}
	return nil
}

func mmapSweep(n, q int, seed int64, jsonPath string) error {
	res, err := bench.RunMmap(bench.MmapConfig{N: n, Queries: q, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("# mmap sweep: n=%d map_supported=%v (every mapped index probe-verified against its cold-built twin)\n",
		res.N, res.MapSupported)
	emit(bench.MmapLoadGrid(res.Loads))
	fmt.Printf("# cold-shard first touch over %d shards: first pass %.1f ns/q, second pass %.1f ns/q, %d minor faults (memsim predicts +%.0f ns cold)\n",
		res.Touch.Shards, res.Touch.FirstPassNs, res.Touch.SecondPassNs, res.Touch.MinorFaults, res.Touch.PredictedColdNs)
	emit(bench.MmapBudgetGrid(res.Budget))
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", jsonPath)
	}
	return nil
}

func persistSweep(n, q int, seed int64) error {
	pts, err := bench.RunPersist(bench.PersistConfig{N: n, Queries: q, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println("# persist sweep: cold build vs snapshot save vs warm load (every loaded index verified bit-identical to its cold twin)")
	emit(bench.PersistGrid(pts))
	return nil
}

func latencyCurve(n int, seed int64) error {
	if n == 0 {
		n = 4_000_000
	}
	keys, err := dataset.Generate(dataset.USpr, 64, n, seed)
	if err != nil {
		return err
	}
	pts := bench.MeasureLatencyCurve(keys, 1<<20, 5_000, seed)
	g := bench.NewGrid("window", "linear_ns", "binary_ns", "exponential_ns")
	verbs := []string{"%d", "%.1f", "%.1f", "%.1f"}
	for _, p := range pts {
		g.Rowf(verbs, p.WindowSize, p.LinearNs, p.BinaryNs, p.ExpNs)
	}
	emit(g)
	return nil
}
