package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/concurrent"
	"repro/internal/kv"
)

// workloads lists the benchmark's workloads in their default order. The
// README says why each exists.
var workloads = []string{"lookup-dram", "lookup-gens", "serve-read", "serve-churn"}

// scale sizes one workload. Only tests shrink it.
type scale struct {
	keys      int     // face64 keys indexed
	writes    int     // lookup-gens: pending writes applied during set-up
	pool      int     // query pool size (a multiple of 256)
	setups    int     // set-ups per run; setup_s is their median
	rate      float64 // serve-*: offered requests/s
	writeRate float64 // serve-churn: primary writes/s
}

func defaultScale(workload string) scale {
	switch workload {
	case "lookup-dram":
		return scale{keys: 20_000_000, pool: 1 << 20, setups: 3}
	case "lookup-gens":
		return scale{keys: 1_000_000, writes: 8192, pool: 1 << 20, setups: 5}
	case "serve-read":
		return scale{keys: 1_000_000, pool: 1 << 16, setups: 5, rate: 8000}
	default: // serve-churn
		return scale{keys: 1_000_000, pool: 1 << 16, setups: 5, rate: 8000, writeRate: 6000}
	}
}

// config is one measured run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // trace files and the serve stack's store go under it
	sc       scale
	// plantWrong corrupts one expected answer before the window, so a
	// test can check that verification catches it.
	plantWrong bool
	// plantFail stops serve-*'s HTTP server after the warm-up, so every
	// request of the window fails and a test can check that failures are
	// counted and reported.
	plantFail bool
}

// runResult is what one run reports to the parent process.
type runResult struct {
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Seed      int64     `json:"seed"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Incorrect int64     `json:"incorrect"`
	Verified  int64     `json:"verified"`
	E2E       metricSet `json:"e2e"`
	Layer     metricSet `json:"layer,omitempty"`
	Info      metricSet `json:"info"`
}

func (r *runResult) info(name string, v float64, unit string) {
	mustBeFinite(name, v)
	r.Info[name] = value{v, unit}
}

// runOne measures cfg's workload in this process.
func runOne(ctx context.Context, cfg config) (*runResult, error) {
	res := &runResult{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed,
		E2E: metricSet{}, Info: metricSet{},
	}
	var tr *tracer
	if cfg.trace {
		res.Layer = metricSet{}
		tr = newTracer(traceCapacity(cfg))
	}
	var err error
	switch cfg.workload {
	case "lookup-dram", "lookup-gens":
		err = runLookup(ctx, cfg, tr, res)
	case "serve-read", "serve-churn":
		err = runServe(ctx, cfg, tr, res)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	if res.Verified == 0 {
		return nil, fmt.Errorf("%s: no answer was verified; the run is invalid", cfg.workload)
	}
	if cfg.trace {
		for _, d := range perLayer {
			if _, ok := res.Layer[d.name]; !ok {
				res.Layer.put(d.name, 0)
			}
		}
		res.info("spans", float64(len(tr.recorded())), "count")
		res.info("spans_dropped", float64(tr.dropped.Load()), "count")
		if err := tr.write(filepath.Join(cfg.out, "trace", cfg.workload+".jsonl")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// traceCapacity sizes the span buffer for a run: two spans per request,
// one per write, and headroom for background spans and the lookup loops'
// one span per 64Ki-lookup segment.
func traceCapacity(cfg config) int {
	secs := cfg.seconds + 2
	return int(secs*(2*cfg.sc.rate+cfg.sc.writeRate)) + 1<<16
}

// write is one primary write: an insert of key, or a delete of key.
type write struct {
	key    uint64
	delete bool
}

// makeWrites derives n writes over keys, three inserts per delete.
// Deletes walk base keys with a stride coprime to len(keys), so no key is
// deleted twice and every delete finds a live occurrence.
func makeWrites(keys []uint64, n int, seed int64) []write {
	rng := rand.New(rand.NewSource(seed + 7))
	top := keys[len(keys)-1] + 2
	stride := 1_000_003
	for gcd(stride, len(keys)) != 1 {
		stride += 2
	}
	pos := rng.Intn(len(keys))
	ws := make([]write, n)
	for i := range ws {
		if i%4 == 3 {
			ws[i] = write{key: keys[pos], delete: true}
			pos = (pos + stride) % len(keys)
		} else {
			ws[i] = write{key: rng.Uint64() % top}
		}
	}
	return ws
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// applyWrites performs ws on ix, failing on a delete that finds nothing.
// When tr is non-nil each call is recorded as a span; lat, when non-nil,
// receives each call's duration in µs.
func applyWrites(ix *concurrent.Index[uint64], ws []write, tr *tracer, lat *[]float64) error {
	for _, w := range ws {
		t0 := time.Now()
		ok := true
		if w.delete {
			ok = ix.Delete(w.key)
		} else {
			ix.Insert(w.key)
		}
		if tr != nil || lat != nil {
			t1 := time.Now()
			tr.add(spanWrite, spanNone, 0, t0, t1)
			if lat != nil {
				*lat = append(*lat, float64(t1.Sub(t0))/float64(time.Microsecond))
			}
		}
		if !ok {
			return fmt.Errorf("delete of live key %d found nothing", w.key)
		}
	}
	return nil
}

// liveKeys returns the sorted multiset keys holds after ws.
func liveKeys(keys []uint64, ws []write) []uint64 {
	if len(ws) == 0 {
		return keys
	}
	dels := map[uint64]int{}
	var ins []uint64
	for _, w := range ws {
		if w.delete {
			dels[w.key]++
		} else {
			ins = append(ins, w.key)
		}
	}
	live := make([]uint64, 0, len(keys)+len(ins))
	for _, k := range keys {
		if dels[k] > 0 {
			dels[k]--
			continue
		}
		live = append(live, k)
	}
	live = append(live, ins...)
	slices.Sort(live)
	return live
}

// lowerBounds returns kv.LowerBound(keys, q) for every q in pool: the
// reference ranks, by the repo's reference search.
func lowerBounds(keys, pool []uint64) []int {
	want := make([]int, len(pool))
	for i, q := range pool {
		want[i] = kv.LowerBound(keys, q)
	}
	return want
}

// heapMB is HeapInuse after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// release returns freed memory to the OS between set-ups, so the next
// one starts from the same footing.
func release() { debug.FreeOSMemory() }
