// Root benchmarks: one benchmark family per table and figure of the
// paper's evaluation (see DESIGN.md §3 for the experiment index).
//
//	go test -bench=. -benchmem
//
// Dataset size defaults to 500k keys per dataset (the paper uses 200M); set
// REPRO_BENCH_N to scale up. Shapes — method ordering, improvement factors,
// crossovers — are the reproduction target, not absolute nanoseconds
// (EXPERIMENTS.md records both).
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfmodel"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/memsim"
	"repro/internal/search"
)

func benchN() int {
	if s := os.Getenv("REPRO_BENCH_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 500_000
}

const benchSeed = 42

var (
	dataMu    sync.Mutex
	dataCache = map[string][]uint64{}
)

func keysFor(b *testing.B, spec dataset.Spec) []uint64 {
	b.Helper()
	dataMu.Lock()
	defer dataMu.Unlock()
	id := spec.String()
	if k, ok := dataCache[id]; ok {
		return k
	}
	k, err := dataset.Generate(spec.Name, spec.Bits, benchN(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	dataCache[id] = k
	return k
}

// BenchmarkTable2 regenerates Table 2: lookup latency per dataset per
// method. Sub-benchmark names follow "dataset/method".
func BenchmarkTable2(b *testing.B) {
	for _, spec := range dataset.Table2 {
		keys64 := keysFor(b, spec)
		if spec.Bits == 32 {
			table2Row(b, spec, dataset.U32(keys64))
		} else {
			table2Row(b, spec, keys64)
		}
	}
}

var (
	builtMu    sync.Mutex
	builtCache = map[string]any{}
)

// builtFor caches constructed indexes: the testing framework re-runs each
// sub-benchmark body while calibrating b.N, and rebuilding a 500k-key index
// on every calibration round would dominate the run.
func builtFor[K kv.Key](b *testing.B, id string, be index.Backend[K], keys []K) index.Index[K] {
	b.Helper()
	builtMu.Lock()
	defer builtMu.Unlock()
	if v, ok := builtCache[id]; ok {
		return v.(index.Index[K])
	}
	ix, err := be.Build(keys)
	if err != nil {
		b.Fatal(err)
	}
	builtCache[id] = ix
	return ix
}

func table2Row[K kv.Key](b *testing.B, spec dataset.Spec, keys []K) {
	w := bench.NewWorkload(keys, 1<<16, benchSeed+1)
	for _, be := range index.Registry[K]() {
		be := be
		b.Run(spec.String()+"/"+be.Name, func(b *testing.B) {
			if reason := be.Applicable(keys); reason != "" {
				b.Skipf("N/A as in the paper's Table 2: %s", reason)
			}
			ix := builtFor(b, spec.String()+"/"+be.Name, be, keys)
			// Validate before timing: a benchmark must never measure a
			// broken index.
			if _, err := w.Measure(ix.Find, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ix.SizeBytes()), "indexbytes")
			mask := len(w.Queries) - 1
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += ix.Find(w.Queries[i&mask])
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkFig2aLocalSearch regenerates Fig. 2a: local-search latency as a
// function of the planted prediction error.
func BenchmarkFig2aLocalSearch(b *testing.B) {
	keys := dataset.U32(keysFor(b, dataset.Spec{Name: dataset.USpr, Bits: 32}))
	n := len(keys)
	for delta := 1; delta < n/2; delta *= 10 {
		w := bench.NewPlanted(keys, delta, 1<<14, benchSeed)
		mask := len(w.Q) - 1
		run := func(name string, f func(i int) int) {
			b.Run(fmt.Sprintf("err=%d/%s", delta, name), func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += f(i & mask)
				}
				if sink == -1 {
					b.Fatal("impossible")
				}
			})
		}
		run("linear", func(i int) int { return search.LinearFrom(keys, int(w.Pred[i]), w.Q[i]) })
		run("binary", func(i int) int {
			lo := kv.Clamp(int(w.Pred[i])-delta, 0, n)
			hi := kv.Clamp(int(w.Pred[i])+delta+1, 0, n)
			return search.BinaryRange(keys, lo, hi, w.Q[i])
		})
		run("exponential", func(i int) int { return search.Exponential(keys, int(w.Pred[i]), w.Q[i]) })
		run("binary-wo-model", func(i int) int { return search.Binary(keys, w.Q[i]) })
	}
}

// BenchmarkFig2bCacheMisses regenerates Fig. 2b: simulated cache misses of
// the local search per planted error. The metric of interest is
// LLCmiss/op (reported), not ns/op.
func BenchmarkFig2bCacheMisses(b *testing.B) {
	pts, err := bench.RunFig2b(bench.Fig2Config{N: benchN(), Queries: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pts {
		p := p
		b.Run(fmt.Sprintf("err=%d", p.Err), func(b *testing.B) {
			b.ReportMetric(p.LinearMisses, "linearLLC/op")
			b.ReportMetric(p.BinaryMisses, "binaryLLC/op")
			b.ReportMetric(p.ExpMisses, "expLLC/op")
			b.ReportMetric(p.BSMisses, "bsLLC/op")
			b.ReportMetric(p.FASTMisses, "fastLLC/op")
			b.ReportMetric(0, "ns/op") // timing is not the object here
		})
	}
}

// BenchmarkFig3CDFs regenerates the Fig. 3 CDF series (macro and zoom) and
// reports the local-variance contrast the figure illustrates.
func BenchmarkFig3CDFs(b *testing.B) {
	series, err := bench.RunFig3(benchN(), 500, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range series {
		b.Run(s.Spec.String(), func(b *testing.B) {
			b.ReportMetric(float64(len(s.MacroKeys)), "macro-points")
			b.ReportMetric(float64(len(s.ZoomKeys)), "zoom-points")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkFig6ErrorCorrection regenerates Fig. 6: average error of a plain
// linear model vs the same model with a Shift-Table on osmc64.
func BenchmarkFig6ErrorCorrection(b *testing.B) {
	res, err := bench.RunFig6(benchN(), 1000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("osmc64", func(b *testing.B) {
		b.ReportMetric(res.AvgModel, "model-err")
		b.ReportMetric(res.AvgCorrected, "corrected-err")
		b.ReportMetric(res.AvgModel/res.AvgCorrected, "reduction-x")
		b.ReportMetric(0, "ns/op")
	})
}

// BenchmarkFig7Build regenerates Fig. 7: index build times. Each iteration
// builds the index once over face64 (per-dataset numbers come from
// cmd/figures -fig 7).
func BenchmarkFig7Build(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.Face, Bits: 64})
	for _, be := range index.Registry[uint64]() {
		be := be
		if be.Applicable(keys) != "" {
			continue
		}
		b.Run(be.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := be.Build(keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8SizeSweep regenerates Fig. 8 on face64: per index-size
// point, lookup latency with simulated miss metrics attached.
func BenchmarkFig8SizeSweep(b *testing.B) {
	pts, err := bench.RunFig8(bench.Fig8Config{N: benchN(), Queries: 20_000, Reps: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		p := p
		b.Run(fmt.Sprintf("%s/size=%d", p.Method, p.SizeBytes), func(b *testing.B) {
			b.ReportMetric(p.LookupNs, "lookup-ns")
			b.ReportMetric(p.Log2Err, "log2err")
			b.ReportMetric(p.Accesses, "touch/op")
			b.ReportMetric(p.L1Misses, "L1/op")
			b.ReportMetric(p.LLCMisses, "LLC/op")
			b.ReportMetric(0, "ns/op")
		})
		_ = i
	}
}

// BenchmarkFig9LayerSize regenerates Fig. 9: lookup latency and average
// error per Shift-Table layer configuration per dataset.
func BenchmarkFig9LayerSize(b *testing.B) {
	res, err := bench.RunFig9(benchN(), 50_000, 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range res.Specs {
		for _, mode := range res.Modes {
			cell := res.Cells[spec.String()][mode]
			b.Run(spec.String()+"/"+mode, func(b *testing.B) {
				b.ReportMetric(cell.LookupNs, "lookup-ns")
				b.ReportMetric(cell.AvgErr, "avg-err")
				b.ReportMetric(float64(cell.SizeBytes), "layerbytes")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkLatencyCurve regenerates the §2.3 L(s) micro-benchmark (the
// error-to-latency mapping that parameterises the §3.7 cost model).
func BenchmarkLatencyCurve(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.USpr, Bits: 64})
	pts := bench.MeasureLatencyCurve(keys, 1<<16, 3_000, benchSeed)
	for _, p := range pts {
		p := p
		b.Run(fmt.Sprintf("window=%d", p.WindowSize), func(b *testing.B) {
			b.ReportMetric(p.LinearNs, "linear-ns")
			b.ReportMetric(p.BinaryNs, "binary-ns")
			b.ReportMetric(p.ExpNs, "exp-ns")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkCostModel validates §3.7: the cost model's predicted latency for
// IM+Shift-Table vs the measured one, per dataset (experiment C1).
func BenchmarkCostModel(b *testing.B) {
	calib := keysFor(b, dataset.Spec{Name: dataset.USpr, Bits: 64})
	l := bench.FitLatencyFn(bench.MeasureLatencyCurve(calib, 1<<18, 3_000, benchSeed))
	for _, spec := range []dataset.Spec{
		{Name: dataset.UDen, Bits: 64},
		{Name: dataset.Face, Bits: 64},
		{Name: dataset.Osmc, Bits: 64},
		{Name: dataset.Wiki, Bits: 64},
	} {
		keys := keysFor(b, spec)
		b.Run(spec.String(), func(b *testing.B) {
			model := cdfmodel.NewInterpolation(keys)
			tab, err := core.Build(keys, model, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			w := bench.NewWorkload(keys, 1<<15, benchSeed+1)
			measured, err := w.Measure(tab.Find, 2)
			if err != nil {
				b.Fatal(err)
			}
			predicted := tab.EstimateWith(5, 40, l).TotalNs
			b.ReportMetric(predicted, "predicted-ns")
			b.ReportMetric(measured, "measured-ns")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// ---- Batched query engine (DESIGN.md §5) ----

// stBuiltFor caches an IM+Shift-Table layer per (dataset, mode) across
// sub-benchmark calibration rounds, like builtFor does for Table 2.
func stBuiltFor(b *testing.B, spec dataset.Spec, mode core.Mode) (*core.Table[uint64], *bench.Workload[uint64]) {
	b.Helper()
	id := fmt.Sprintf("st/%s/%s", spec, mode)
	keys := keysFor(b, spec)
	builtMu.Lock()
	defer builtMu.Unlock()
	type cached struct {
		tab *core.Table[uint64]
		w   *bench.Workload[uint64]
	}
	if v, ok := builtCache[id]; ok {
		c := v.(cached)
		return c.tab, c.w
	}
	model := cdfmodel.NewInterpolation(keys)
	tab, err := core.Build(keys, model, core.Config{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	w := bench.NewWorkload(keys, 1<<16, benchSeed+1)
	builtCache[id] = cached{tab, w}
	return tab, w
}

var batchBenchSpecs = []dataset.Spec{
	{Name: dataset.Face, Bits: 64},
	{Name: dataset.LogN, Bits: 64},
}

// BenchmarkFindScalar is the scalar baseline the batch speedups are
// measured against: one dependent Find per iteration, same workload and
// layer as BenchmarkFindBatch.
func BenchmarkFindScalar(b *testing.B) {
	for _, spec := range batchBenchSpecs {
		for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
			tab, w := stBuiltFor(b, spec, mode)
			mask := len(w.Queries) - 1
			b.Run(fmt.Sprintf("%s/%s", spec, mode), func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += tab.Find(w.Queries[i&mask])
				}
				if sink == -1 {
					b.Fatal("impossible")
				}
			})
		}
	}
}

// BenchmarkFindBatch measures the staged pipeline at several batch sizes.
// b.N counts individual lookups, so ns/op is directly comparable with
// BenchmarkFindScalar (compare with benchstat).
func BenchmarkFindBatch(b *testing.B) {
	for _, spec := range batchBenchSpecs {
		for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
			tab, w := stBuiltFor(b, spec, mode)
			mask := len(w.Queries) - 1
			for _, bs := range []int{64, 256, 1024} {
				b.Run(fmt.Sprintf("%s/%s/batch=%d", spec, mode, bs), func(b *testing.B) {
					out := make([]int, bs)
					sink := 0
					b.ResetTimer()
					for i := 0; i < b.N; i += bs {
						lo := i & mask
						res := tab.FindBatch(w.Queries[lo:lo+bs], out)
						sink += res[0]
					}
					if sink == -1 {
						b.Fatal("impossible")
					}
				})
			}
		}
	}
}

// BenchmarkConcurrentFindBatch measures what the concurrent index serves
// over 1M face64 keys, queried in 256-lane batches: with no pending writes
// (the state a replica serves between fulls), and with 8,192 pending
// writes, three inserts per delete — a sealed run plus a full write head.
// On top of BenchmarkFindBatch's base probe it adds the concurrent
// snapshot's per-lane generation corrections (DESIGN.md §6). The pending
// state is also queried in 64-lane batches, the /v1/batch width of
// shiftbench's serve-churn. b.N counts individual lookups; "gens" reports
// the generation-stack depth.
func BenchmarkConcurrentFindBatch(b *testing.B) {
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000_000, benchSeed)
	w := bench.NewWorkload(keys, 1<<16, benchSeed+1)
	mask := len(w.Queries) - 1
	for _, pending := range []int{0, 8_192} {
		ix, live := concurrentBenchIndex(b, keys, pending)
		// Validate before timing: a benchmark must never measure a broken index.
		for i, got := range ix.FindBatch(w.Queries, nil) {
			if want := kv.LowerBound(live, w.Queries[i]); got != want {
				b.Fatalf("pending=%d: FindBatch rank for %d = %d, want %d", pending, w.Queries[i], got, want)
			}
		}
		gens := ix.Published().Gens()
		widths := []int{256}
		if pending > 0 {
			widths = append(widths, 64)
		}
		for _, lanes := range widths {
			b.Run(fmt.Sprintf("face64/pending=%d/batch=%d", pending, lanes), func(b *testing.B) {
				out := make([]int, lanes)
				sink := 0
				b.ResetTimer()
				for i := 0; i < b.N; i += lanes {
					lo := i & mask
					sink += ix.FindBatch(w.Queries[lo:lo+lanes], out)[0]
				}
				if sink == -1 {
					b.Fatal("impossible")
				}
				b.ReportMetric(float64(gens), "gens")
			})
		}
		ix.Close()
	}
}

// BenchmarkConcurrentFind is BenchmarkConcurrentFindBatch's set-up queried
// one key at a time through the scalar Find: the base probe plus the
// branch-free generation searches, with no batch pipeline. b.N counts
// lookups; "gens" reports the generation-stack depth.
func BenchmarkConcurrentFind(b *testing.B) {
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000_000, benchSeed)
	w := bench.NewWorkload(keys, 1<<16, benchSeed+1)
	mask := len(w.Queries) - 1
	for _, pending := range []int{0, 8_192} {
		ix, live := concurrentBenchIndex(b, keys, pending)
		for _, q := range w.Queries {
			if got, want := ix.Find(q), kv.LowerBound(live, q); got != want {
				b.Fatalf("pending=%d: Find(%d) = %d, want %d", pending, q, got, want)
			}
		}
		gens := ix.Published().Gens()
		b.Run(fmt.Sprintf("face64/pending=%d", pending), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += ix.Find(w.Queries[i&mask])
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
			b.ReportMetric(float64(gens), "gens")
		})
		ix.Close()
	}
}

// concurrentBenchIndex builds the concurrent index over keys that the
// Concurrent* benchmarks time, with pending writes applied
// (pendingWrites), and returns it with its live multiset.
func concurrentBenchIndex(b *testing.B, keys []uint64, pending int) (*concurrent.Index[uint64], []uint64) {
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		b.Fatal(err)
	}
	live := keys
	if pending > 0 {
		live = pendingWrites(ix, keys, pending)
	}
	if p := ix.Pending(); p != pending {
		b.Fatalf("%d pending writes, want %d", p, pending)
	}
	return ix, live
}

// pendingWrites applies n writes to ix — every fourth deletes a distinct
// base key, the rest insert random values in the key range — and returns
// the resulting sorted live multiset.
func pendingWrites(ix *concurrent.Index[uint64], keys []uint64, n int) []uint64 {
	rng := rand.New(rand.NewSource(benchSeed + 2))
	dead := make(map[int]bool, n/4)
	var ins []uint64
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			j := rng.Intn(len(keys))
			for dead[j] {
				j = rng.Intn(len(keys))
			}
			dead[j] = true
			ix.Delete(keys[j])
			continue
		}
		k := rng.Uint64() % (keys[len(keys)-1] + 2)
		ix.Insert(k)
		ins = append(ins, k)
	}
	live := make([]uint64, 0, len(keys)+len(ins))
	for j, k := range keys {
		if !dead[j] {
			live = append(live, k)
		}
	}
	live = append(live, ins...)
	slices.Sort(live)
	return live
}

// BenchmarkBuild measures Shift-Table construction: the streaming build
// (one shard per worker, entries written straight into the packed layer
// as the keys go by) at 1/2/4/GOMAXPROCS workers, both modes. b.N counts
// keys, so ns/op is build ns per key; on a 1-core box the worker
// variants measure the sharded code path itself rather than a speedup.
func BenchmarkBuild(b *testing.B) {
	for _, spec := range batchBenchSpecs {
		keys := keysFor(b, spec)
		model := cdfmodel.NewInterpolation(keys)
		for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
			for _, workers := range []int{1, 2, 4, 0} {
				name := fmt.Sprintf("%s/%s/workers=%d", spec, mode, workers)
				if workers == 0 {
					name = fmt.Sprintf("%s/%s/workers=gomaxprocs", spec, mode)
				}
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i += len(keys) {
						tab, err := (*core.Table[uint64])(nil).BuildNext(keys, model, core.Config{Mode: mode}, workers)
						if err != nil || tab.Len() != len(keys) {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkCompaction measures one full compaction of the concurrent
// index — merge the pending generations into the base, rebuild model +
// layer through BuildNext's streaming build — after a fixed write burst
// on an index closed right after New (no background compaction). b.N
// counts compactions; B/op is the rebuild's allocation: the merged keys
// and the packed layer.
func BenchmarkCompaction(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.Face, Bits: 64})
	const burst = 4096
	b.Run(fmt.Sprintf("face64/burst=%d", burst), func(b *testing.B) {
		ix, err := concurrent.New(keys, concurrent.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
		rng := rand.New(rand.NewSource(99))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < burst; j++ {
				ix.Insert(rng.Uint64())
			}
			b.StartTimer()
			if err := ix.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmStart times the three ways a process gets an index back
// to serving (DESIGN.md §12): a cold build, a verified heap load of its
// snapshot, and a mapped open of the same file. Before the
// timer starts, each restored index must answer a fixed probe set exactly
// like its cold twin, and the mapped open must serve from its region
// (MappedBytes > 0; a heap read behind the same API where the platform
// has no mmap). Sub-benchmark names follow "backend/path".
func BenchmarkWarmStart(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.Face, Bits: 64})
	var probes []uint64
	for i := 0; i < len(keys); i += len(keys)/512 + 1 {
		probes = append(probes, keys[i], keys[i]+1)
	}
	probes = append(probes, 0, math.MaxUint64)
	dir := b.TempDir()
	backends := []struct {
		name  string
		build func() (index.Index[uint64], error)
	}{
		{"IM+ST", func() (index.Index[uint64], error) { return index.Build("IM+ST", keys) }},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			cold, err := be.build()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(dir, be.name+".snap")
			if err := index.SaveFile(path, cold); err != nil {
				b.Fatal(err)
			}
			paths := []struct {
				name string
				open func() (index.Index[uint64], error)
			}{
				{"cold", be.build},
				{"load", func() (index.Index[uint64], error) { return index.LoadFile[uint64](path) }},
				{"map", func() (index.Index[uint64], error) {
					ix, err := index.LoadFileMapped[uint64](path)
					if err == nil && ix.(interface{ MappedBytes() int64 }).MappedBytes() == 0 {
						err = fmt.Errorf("%s did not open mapped", path)
					}
					return ix, err
				}},
			}
			for _, p := range paths {
				b.Run(p.name, func(b *testing.B) {
					ix, err := p.open()
					if err != nil {
						b.Fatal(err)
					}
					for _, q := range probes {
						if got, want := ix.Find(q), cold.Find(q); got != want {
							b.Fatalf("Find(%d) = %d, cold twin %d", q, got, want)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := p.open(); err != nil {
							b.Fatal(err)
						}
						// A mapped index unmaps only when collected, and a
						// mapped open allocates too little to trigger a
						// GC: collect now and then so the mappings cannot
						// pile up to the process's map-count limit.
						if i%256 == 255 {
							b.StopTimer()
							runtime.GC()
							b.StartTimer()
						}
					}
				})
			}
		})
	}
}

// BenchmarkMemsim measures the simulator itself (it is the substrate of
// Fig. 2b and Fig. 8; its own throughput bounds their runtime).
func BenchmarkMemsim(b *testing.B) {
	sim, err := memsim.New(memsim.Skylake())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sim.Access(uint64(i)*64, 8)
	}
}
