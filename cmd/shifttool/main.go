// Command shifttool builds, inspects, and tunes a Shift-Table over a
// dataset, exposing the paper's cost model (§3.7) and tuning rules (§3.9,
// §4.1) as an advisor.
//
// Usage:
//
//	shifttool -dataset face64 [-n 2000000] [-model im|linear|rs]
//	          [-mode r|s] [-m 0] [-file keys.bin] [-advise] [-rank]
//	          [-save index.snap] [-load index.snap] [-mmap]
//
// With -file, keys are loaded from a SOSD-format binary file instead of
// being generated ( -dataset then only selects the key width, e.g. any
// name ending in 32 or 64).
//
// With -save, the built index is persisted as a verified snapshot
// (DESIGN.md §9: checksummed container, atomic rename). With -load, the
// snapshot is restored instead of building anything — the warm-start
// path a serving restart takes — validated against its own keys, and
// summarised. -load ignores the build flags entirely; the key width is
// recorded in the snapshot and both widths are tried.
//
// Snapshots are always saved in the page-aligned v2 layout (DESIGN.md
// §12). With -mmap, -load opens the snapshot by mapping it in place — the
// O(1) warm-start path — reporting the load mode and per-key load cost.
//
// A full snapshot in a form only earlier builds wrote does not load
// (snapshot.ErrLegacy): -load without -save exits non-zero naming the
// migration, and -load old.snap -save new.snap is that one-way migration
// (DESIGN.md §13): internal/migrate rewrites the file into the current
// form, which is loaded through the verified heap load and self-validated
// before it is written out, without rebuilding the index.
//
// With -rank, the tool generalises the advisor across the whole backend
// registry (internal/index): it measures this machine's L(s) curve, asks
// every backend's CostEstimator capability for its §3.7 estimate over the
// dataset, measures actual lookup latency, and prints both side by side —
// the same ranking internal/router applies per shard.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cdfmodel"
	_ "repro/internal/concurrent" // registers the "concurrent" snapshot kind
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/migrate"
	"repro/internal/radixspline"
	"repro/internal/snapshot"
)

func main() {
	ds := flag.String("dataset", "face64", "dataset spec (e.g. face64, uden32)")
	n := flag.Int("n", 2_000_000, "keys to generate")
	modelName := flag.String("model", "im", "CDF model hosting the layer: im, linear, or rs")
	mode := flag.String("mode", "r", "layer mode: r (range pairs) or s (midpoint shifts)")
	m := flag.Int("m", 0, "layer partitions M (0 = N, the paper's default)")
	file := flag.String("file", "", "load keys from a SOSD binary file instead of generating")
	seed := flag.Int64("seed", 42, "generation seed")
	advise := flag.Bool("advise", false, "run the cost-model advisor (measures an L(s) curve first)")
	rank := flag.Bool("rank", false, "rank every registry backend on the dataset: §3.7 estimate vs measured ns")
	save := flag.String("save", "", "persist the built index as a snapshot file")
	load := flag.String("load", "", "restore and summarise a snapshot file instead of building")
	useMmap := flag.Bool("mmap", false, "with -load: map the snapshot in place (v2 layout)")
	flag.Parse()

	if err := run(*ds, *n, *modelName, *mode, *m, *file, *seed, *advise, *rank, *save, *load, *useMmap); err != nil {
		fmt.Fprintln(os.Stderr, "shifttool:", err)
		os.Exit(1)
	}
}

func run(ds string, n int, modelName, mode string, m int, file string, seed int64, advise, rank bool, save, load string, useMmap bool) error {
	bits := 64
	if strings.HasSuffix(ds, "32") {
		bits = 32
	}
	if load != "" {
		return loadSnapshot(load, useMmap, save)
	}
	var keys []uint64
	var err error
	if file != "" {
		keys, err = dataset.Load(file, bits)
	} else {
		name := dataset.Name(strings.TrimSuffix(strings.TrimSuffix(ds, "64"), "32"))
		keys, err = dataset.Generate(name, bits, n, seed)
	}
	if err != nil {
		return err
	}
	if rank {
		return rankBackends(keys, seed)
	}
	fmt.Printf("dataset %s: %d keys", ds, len(keys))
	distinct, maxRun := dataset.DupStats(keys)
	fmt.Printf(" (%d distinct, longest duplicate run %d)\n", distinct, maxRun)

	var model cdfmodel.Model[uint64]
	switch modelName {
	case "im":
		model = cdfmodel.NewInterpolation(keys)
	case "linear":
		model = cdfmodel.NewLinear(keys)
	case "rs":
		rs, err := radixspline.New(keys, radixspline.Config{MaxError: 32})
		if err != nil {
			return err
		}
		model = rs
	default:
		return fmt.Errorf("unknown model %q (want im, linear, or rs)", modelName)
	}

	cfg := core.Config{M: m}
	switch mode {
	case "r":
		cfg.Mode = core.ModeRange
	case "s":
		cfg.Mode = core.ModeMidpoint
	default:
		return fmt.Errorf("unknown mode %q (want r or s)", mode)
	}
	start := time.Now()
	tab, err := core.Build(keys, model, cfg) // GOMAXPROCS workers
	if err != nil {
		return err
	}
	buildMs := float64(time.Since(start).Nanoseconds()) / 1e6
	if save != "" {
		if err := saveSnapshot[uint64](save, tab); err != nil {
			return err
		}
	}
	s := tab.ComputeStats()
	fmt.Printf("built in %.1f ms (%.1f ns/key, %d workers)\n",
		buildMs, buildMs*1e6/float64(len(keys)), runtime.GOMAXPROCS(0))
	fmt.Printf("\nShift-Table over %s model (monotone=%v)\n", model.Name(), model.Monotone())
	fmt.Printf("  mode %v, M=%d, entry width %d bits, footprint %s\n", s.Mode, s.M, s.EntryBits, human(s.SizeBytes))
	fmt.Printf("  empty partitions: %d (%.1f%%), max partition cardinality: %d\n",
		s.EmptyParts, 100*float64(s.EmptyParts)/float64(s.M), s.MaxCount)
	fmt.Printf("  model error: mean |drift| = %.1f records (max %d)\n", s.MeanAbsDrift, s.MaxAbsDrift)
	fmt.Printf("  corrected error: Eq.8 estimate = %.2f, measured = %.2f records\n", s.AvgErrEq8, tab.MeasuredError())
	fmt.Printf("  mean log2(local-search window) = %.2f\n", s.MeanLog2Bounds)

	adv := tab.Advise()
	fmt.Printf("\n§4.1 rule-based advice: use Shift-Table = %v (%s)\n", adv.UseShiftTable, adv.Reason)

	if advise {
		fmt.Println("\nmeasuring L(s) micro-benchmark (§2.3)...")
		curve := bench.MeasureLatencyCurve(keys, 1<<18, 3_000, seed)
		l := bench.FitLatencyFn(curve)
		// The paper's §4.1 constants: ~40 ns for the layer lookup; model
		// execution measured as ~L(1) for the register-resident models.
		modelNs := 5.0
		with := tab.EstimateWith(modelNs, 40, l)
		without := tab.EstimateWithout(modelNs, l)
		fmt.Printf("cost model (§3.7): with Shift-Table %.0f ns (model %.0f + layer %.0f + search %.0f)\n",
			with.TotalNs, with.ModelNs, with.LayerNs, with.SearchNs)
		fmt.Printf("                   without          %.0f ns (model %.0f + search %.0f)\n",
			without.TotalNs, without.ModelNs, without.SearchNs)
		if with.TotalNs < without.TotalNs {
			fmt.Printf("=> enable the layer (predicted %.1fx speedup)\n", without.TotalNs/with.TotalNs)
		} else {
			fmt.Printf("=> disable the layer (predicted %.1fx slowdown)\n", with.TotalNs/without.TotalNs)
		}
	}
	return nil
}

// rankBackends generalises the §3.7 advisor across the registry: every
// applicable backend is built, its CostEstimator estimate (where it has
// one) is evaluated under this machine's measured L(s) curve, and actual
// lookup latency is measured over a validated workload.
func rankBackends(keys []uint64, seed int64) error {
	fmt.Println("measuring L(s) micro-benchmark (§2.3)...")
	maxWin := len(keys) / 4
	if maxWin < 2 {
		maxWin = 2
	}
	l := bench.FitLatencyFn(bench.MeasureLatencyCurve(keys, maxWin, 3_000, seed))
	w := bench.NewWorkload(keys, 50_000, seed+1)
	fmt.Printf("\n%-8s %14s %14s %12s\n", "backend", "est ns (§3.7)", "measured ns", "size")
	for _, be := range index.Registry[uint64]() {
		if reason := be.Applicable(keys); reason != "" {
			fmt.Printf("%-8s N/A: %s\n", be.Name, reason)
			continue
		}
		ix, err := be.Build(keys)
		if err != nil {
			return fmt.Errorf("building %s: %w", be.Name, err)
		}
		est := "-"
		if ce, ok := ix.(index.CostEstimator); ok {
			est = fmt.Sprintf("%.0f", ce.EstimateNs(l))
		}
		ns, err := w.Measure(ix.Find, 2)
		if err != nil {
			return fmt.Errorf("measuring %s: %w", be.Name, err)
		}
		fmt.Printf("%-8s %14s %14.1f %12s\n", be.Name, est, ns, human(ix.SizeBytes()))
	}
	return nil
}

// loadSnapshot restores a snapshot file — the warm-start path — and
// summarises it; with save set it then writes the restored index back out
// in the v2 layout, migrating a legacy full on the way. Snapshots record
// their key width in their key sections; both widths are tried
// (shifttool-built snapshots are 64-bit), and on failure both errors are
// reported so a corrupt 32-bit file is not masked by the 64-bit attempt's
// width-mismatch message.
func loadSnapshot(path string, useMmap bool, save string) error {
	ix64, ms, mode, err64 := loadIndex[uint64](path, useMmap)
	if err64 == nil {
		return finish(ix64, path, ms, mode, save)
	}
	ix32, ms, mode, err32 := loadIndex[uint32](path, useMmap)
	if err32 == nil {
		return finish(ix32, path, ms, mode, save)
	}
	for _, err := range []error{err64, err32} {
		if !errors.Is(err, snapshot.ErrLegacy) {
			continue
		}
		if save == "" {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		return migrateSnapshot(path, save)
	}
	return fmt.Errorf("loading %s failed both ways:\n  as 64-bit keys: %v\n  as 32-bit keys: %v", path, err64, err32)
}

// loadIndex restores path with K-wide keys, timing the load and naming
// the path that served it.
func loadIndex[K kv.Key](path string, useMmap bool) (index.Index[K], float64, string, error) {
	start := time.Now()
	if useMmap {
		ix, err := index.LoadFileMapped[K](path)
		return ix, float64(time.Since(start).Nanoseconds()) / 1e6, "mapped (zero-copy)", err
	}
	ix, err := index.LoadFile[K](path)
	return ix, float64(time.Since(start).Nanoseconds()) / 1e6, "heap (verified)", err
}

// migrateSnapshot writes the current form of the legacy full at path to
// save (internal/migrate). The written temporary file is loaded through
// the verified heap load and self-validated before it replaces save, so a
// failure leaves save (which may be path itself) untouched.
func migrateSnapshot(path, save string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cur, err := migrate.Full(data)
	if err != nil {
		return fmt.Errorf("migrating %s: %w", path, err)
	}
	if err := snapshot.WriteFileAtomic(save, func(f *os.File) error {
		if _, err := f.Write(cur); err != nil {
			return err
		}
		return loadSnapshot(f.Name(), false, "")
	}); err != nil {
		return err
	}
	fmt.Printf("saved snapshot %s (migrated from %s, v2 layout, %s)\n", save, path, human(len(cur)))
	return nil
}

// finish summarises and self-validates a restored index, then saves it
// when save is set.
func finish[K kv.Key](ix index.Index[K], path string, loadMs float64, mode, save string) error {
	if err := summarize(ix, path, loadMs, mode); err != nil {
		return err
	}
	if save == "" {
		return nil
	}
	return saveSnapshot(save, ix)
}

// saveSnapshot persists ix crash-safely in the v2 layout and reports it.
func saveSnapshot[K kv.Key](path string, ix index.Index[K]) error {
	start := time.Now()
	if err := index.SaveFile(path, ix); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("saved snapshot %s (v2 layout, %s, %.1f ms)\n",
		path, human(int(st.Size())), float64(time.Since(start).Nanoseconds())/1e6)
	return nil
}

// summarize prints the restored index and self-validates it against its
// own keys: the key slice where the backend exposes one, else the live
// keys a full Scan yields (the concurrent index).
func summarize[K kv.Key](ix index.Index[K], path string, loadMs float64, loadMode string) error {
	fmt.Printf("loaded %s from %s in %.1f ms (%d-bit keys)\n",
		ix.Name(), path, loadMs, 8*kv.Width[K]())
	perKey := 0.0
	if n := ix.Len(); n > 0 {
		perKey = loadMs * 1e6 / float64(n)
	}
	fmt.Printf("  load mode: %s, %.2f ns/key\n", loadMode, perKey)
	fmt.Printf("  %d keys, index footprint %s\n", ix.Len(), human(ix.SizeBytes()))
	var keys []K
	switch kx := ix.(type) {
	case interface{ Keys() []K }:
		keys = kx.Keys()
	case interface{ Scan(a, b K, fn func(K) bool) }:
		keys = make([]K, 0, ix.Len())
		kx.Scan(0, kv.MaxKey[K](), func(k K) bool { keys = append(keys, k); return true })
		if len(keys) != ix.Len() {
			return fmt.Errorf("self-validation failed: Scan yields %d keys, Len is %d", len(keys), ix.Len())
		}
	default:
		fmt.Println("  (backend exposes neither keys nor a scan; skipping self-validation)")
		return nil
	}
	stride := len(keys)/512 + 1
	probes := 0
	for i := 0; i < len(keys); i += stride {
		q := keys[i]
		if got, want := ix.Find(q), kv.LowerBound(keys, q); got != want {
			return fmt.Errorf("self-validation failed: Find(%v) = %d, want %d", q, got, want)
		}
		probes++
	}
	fmt.Printf("  self-validation: %d strided lower-bound probes OK\n", probes)
	return nil
}

func human(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
