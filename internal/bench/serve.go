package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/replica"
	"repro/internal/serve"
)

// This file is the serving-tier experiment (DESIGN.md §11): end-to-end
// HTTP lookup latency and throughput through a live replica, coalesced
// waves versus per-request dispatch, while the primary publishes new
// versions mid-run and the replica keeps syncing underneath the
// handler. Every response is verified against a scan-derived oracle for
// the exact version tag that produced it, so the numbers are only
// reported for bit-correct serving.

// ServeConfig parameterises RunServe.
type ServeConfig struct {
	// N is the base key count (0 = 500k).
	N int
	// Pool is the query pool size (0 = 2048).
	Pool int
	// Workers is the client concurrency per phase (0 = 16).
	Workers int
	// Rate is the open-loop arrival rate in QPS (0 = 1500).
	Rate float64
	// Duration is the length of each measured phase (0 = 2s).
	Duration time.Duration
	// PubEvery is the background publish cadence (0 = 300ms).
	PubEvery time.Duration
	// SyncEvery is the replica sync cadence (0 = 100ms).
	SyncEvery time.Duration
	// Seed for the dataset, writes, and query pool.
	Seed int64
	// Dir hosts the store and replica dirs ("" = fresh temp, removed).
	Dir string
}

// ServePoint is one measured phase: a (mode, loop) combination.
type ServePoint struct {
	Mode          string  `json:"mode"` // "coalesce" or "direct"
	Loop          string  `json:"loop"` // "closed" (throughput) or "open" (latency)
	Completed     uint64  `json:"completed"`
	Errors        uint64  `json:"errors"`
	Rejected      uint64  `json:"rejected"`
	Verified      uint64  `json:"verified"`
	Incorrect     uint64  `json:"incorrect"`
	Versions      int     `json:"versions_observed"`
	ThroughputQPS float64 `json:"throughput_qps"`
	P50us         int64   `json:"p50_us"`
	P99us         int64   `json:"p99_us"`
	P999us        int64   `json:"p999_us"`
	MaxUs         int64   `json:"max_us"`
	MeanWave      float64 `json:"mean_wave"` // 0 for direct mode
	MaxWave       int     `json:"max_wave"`
}

// ServeResult is the whole experiment, in the BENCH_serve.json shape the
// CI smoke and EXPERIMENTS.md reference.
type ServeResult struct {
	N          int          `json:"n"`
	Pool       int          `json:"pool"`
	Workers    int          `json:"workers"`
	RateQPS    float64      `json:"rate_qps"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Published  uint64       `json:"published_versions"`
	Points     []ServePoint `json:"points"`
	// CoalesceSpeedup is closed-loop coalesced throughput over closed-loop
	// direct throughput — the headline "does batching across connections
	// pay for itself" ratio.
	CoalesceSpeedup float64 `json:"coalesce_speedup"`
}

// RunServe stands up the full serving stack in-process — store,
// publisher, replica, hardened HTTP server on a loopback listener — and
// drives it with closed-loop (throughput) and open-loop (latency)
// clients in both dispatch modes while versions keep publishing.
func RunServe(cfg ServeConfig) (*ServeResult, error) {
	if cfg.N == 0 {
		cfg.N = 500_000
	}
	if cfg.Pool == 0 {
		cfg.Pool = 2048
	}
	if cfg.Workers == 0 {
		cfg.Workers = 16
	}
	if cfg.Rate == 0 {
		cfg.Rate = 1500
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.PubEvery == 0 {
		cfg.PubEvery = 300 * time.Millisecond
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 100 * time.Millisecond
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "serve-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	storeDir := dir + "/store"
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	keys, err := dataset.Generate(dataset.Face, 64, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	primary, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		return nil, err
	}
	primary.Close() // no background compaction: explicit Compact calls only
	store := replica.DirStore{Dir: storeDir}
	pub, err := replica.NewPublisher(ctx, store, primary, replica.PublisherConfig{Spool: dir})
	if err != nil {
		return nil, err
	}

	top := keys[len(keys)-1] + 2
	pool := serve.QueryPool(cfg.Seed+1, cfg.Pool, top)

	// Version oracle: reference ranks recorded BEFORE each Publish, via
	// the scan path — the same discipline shiftrepl -oracle uses over the
	// store, held in-process here.
	var oracleMu sync.RWMutex
	oracles := make(map[uint64][]int)
	record := func() {
		oracleMu.Lock()
		oracles[pub.Version()+1] = serve.OracleRanks(primary.Published(), pool)
		oracleMu.Unlock()
	}
	lookup := func(v uint64) []int {
		oracleMu.RLock()
		defer oracleMu.RUnlock()
		return oracles[v]
	}

	record()
	if _, _, err := pub.Publish(ctx); err != nil {
		return nil, err
	}
	r, err := replica.NewReplica[uint64](store, dir+"/replica", replica.ReplicaConfig{})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.Sync(ctx); err != nil {
		return nil, err
	}

	// Background publisher: writes + oracle + publish on a cadence, with
	// a compaction (hence a full snapshot and a base swap on the replica)
	// every 4th version. Publishing is what makes the measurement honest:
	// the serving path is racing live installs the whole time.
	var published atomic.Uint64
	var bgErr atomic.Value
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		writes := cfg.N / 200
		for i := 1; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(cfg.PubEvery):
			}
			for w := 0; w < writes; w++ {
				if w%4 == 0 {
					primary.Delete(keys[rng.Intn(len(keys))])
				} else {
					primary.Insert(rng.Uint64() % top)
				}
			}
			if i%4 == 0 {
				if err := primary.Compact(); err != nil {
					bgErr.Store(err)
					return
				}
			}
			record()
			if _, _, err := pub.Publish(ctx); err != nil {
				if ctx.Err() == nil {
					bgErr.Store(err)
				}
				return
			}
			published.Add(1)
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(cfg.SyncEvery):
			}
			if err := r.Sync(ctx); err != nil && ctx.Err() == nil {
				bgErr.Store(err)
				return
			}
		}
	}()

	res := &ServeResult{
		N: cfg.N, Pool: cfg.Pool, Workers: cfg.Workers, RateQPS: cfg.Rate,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	// Closed loop (the throughput probe) runs in order-balanced
	// repetitions (D/C, C/D, D/C, …) so background publish+compaction
	// stalls land on both modes evenly regardless of where they fall in
	// the cadence, then each mode's reps merge into one reported point.
	const reps = 4
	merged := map[string]*phaseRun{}
	for rep := 0; rep < reps; rep++ {
		order := []string{"direct", "coalesce"}
		if rep%2 == 1 {
			order = []string{"coalesce", "direct"}
		}
		for _, mode := range order {
			run, err := servePhase(ctx, r, pool, lookup, mode, "closed", cfg)
			if err != nil {
				return nil, err
			}
			if run.pt.Incorrect > 0 {
				return nil, fmt.Errorf("serve bench: %d incorrect responses in %s/closed", run.pt.Incorrect, mode)
			}
			if m := merged[mode]; m == nil {
				merged[mode] = run
			} else {
				m.merge(run)
			}
		}
	}
	for _, mode := range []string{"direct", "coalesce"} {
		res.Points = append(res.Points, *merged[mode].finish())
	}
	for _, mode := range []string{"direct", "coalesce"} {
		run, err := servePhase(ctx, r, pool, lookup, mode, "open", cfg)
		if err != nil {
			return nil, err
		}
		if run.pt.Incorrect > 0 {
			return nil, fmt.Errorf("serve bench: %d incorrect responses in %s/open", run.pt.Incorrect, mode)
		}
		res.Points = append(res.Points, *run.finish())
	}
	cancel()
	bg.Wait()
	if err, _ := bgErr.Load().(error); err != nil {
		return nil, fmt.Errorf("serve bench: background publish/sync: %w", err)
	}
	res.Published = published.Load()
	if d := merged["direct"].pt.ThroughputQPS; d > 0 {
		res.CoalesceSpeedup = merged["coalesce"].pt.ThroughputQPS / d
	}
	return res, nil
}

// phaseRun carries one phase's point plus the raw latencies and elapsed
// time needed to merge repetitions.
type phaseRun struct {
	pt      *ServePoint
	lat     []int64
	elapsed time.Duration
	reps    int // additional repetitions merged in
}

// merge folds another repetition of the same (mode, loop) into this one.
func (p *phaseRun) merge(o *phaseRun) {
	p.pt.Completed += o.pt.Completed
	p.pt.Errors += o.pt.Errors
	p.pt.Rejected += o.pt.Rejected
	p.pt.Verified += o.pt.Verified
	p.pt.Incorrect += o.pt.Incorrect
	if o.pt.Versions > p.pt.Versions {
		p.pt.Versions = o.pt.Versions
	}
	// MeanWave re-derives from summed totals via the stash fields.
	p.pt.MeanWave += o.pt.MeanWave // temporarily holds per-rep sums; finish() averages
	if o.pt.MaxWave > p.pt.MaxWave {
		p.pt.MaxWave = o.pt.MaxWave
	}
	p.lat = append(p.lat, o.lat...)
	p.elapsed += o.elapsed
	p.reps++
}

// finish computes the derived fields (throughput, percentiles) over the
// merged repetitions.
func (p *phaseRun) finish() *ServePoint {
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	p.pt.ThroughputQPS = float64(p.pt.Completed) / p.elapsed.Seconds()
	p.pt.P50us, p.pt.P99us, p.pt.P999us = pctl(p.lat, 0.50), pctl(p.lat, 0.99), pctl(p.lat, 0.999)
	if n := len(p.lat); n > 0 {
		p.pt.MaxUs = p.lat[n-1]
	}
	if p.reps > 0 {
		p.pt.MeanWave /= float64(p.reps + 1)
	}
	return p.pt
}

// servePhase runs one (mode, loop) combination against a fresh hardened
// server over the shared live replica.

// sleepCtx pauses for d or until ctx is cancelled, reporting whether the
// full pause elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func servePhase(ctx context.Context, r *replica.Replica[uint64], pool []uint64,
	lookup func(uint64) []int, mode, loop string, cfg ServeConfig) (*phaseRun, error) {

	coalesce := mode == "coalesce"
	var co *serve.Coalescer[uint64]
	if coalesce {
		co = serve.NewCoalescer(r.Index(), serve.CoalescerConfig{Queue: 4096})
		defer co.Close()
	}
	h := serve.NewHandler(r.Index(), co, serve.HandlerConfig{
		Coalesce: coalesce, MaxInflight: 4 * cfg.Workers,
	}, nil)
	srv := serve.NewHTTPServer("", h, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, scancel := context.WithCancel(ctx)
	srvErr := make(chan error, 1)
	go func() { srvErr <- serve.RunListener(sctx, srv, ln, 5*time.Second, nil) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * cfg.Workers},
	}

	pt := &ServePoint{Mode: mode, Loop: loop}
	var completed, errors, rejected, verified, incorrect atomic.Uint64
	versions := make(map[uint64]bool)
	var mu sync.Mutex
	var lat []int64

	fire := func(i uint64) bool {
		idx := int(i % uint64(len(pool)))
		resp, err := client.Get(fmt.Sprintf("%s/v1/find?key=%d", base, pool[idx]))
		if err != nil {
			errors.Add(1)
			return false
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected.Add(1)
			return false
		default:
			errors.Add(1)
			return false
		}
		var fr struct {
			Rank    int    `json:"rank"`
			Version uint64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			errors.Add(1)
			return false
		}
		completed.Add(1)
		want := lookup(fr.Version)
		mu.Lock()
		versions[fr.Version] = true
		mu.Unlock()
		if want == nil || fr.Rank != want[idx] {
			incorrect.Add(1)
		} else {
			verified.Add(1)
		}
		return true
	}
	record := func(us int64) {
		mu.Lock()
		lat = append(lat, us)
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	if loop == "open" {
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		total := int(float64(cfg.Duration) / float64(interval))
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < total; i += cfg.Workers {
					sched := start.Add(time.Duration(i) * interval)
					if d := time.Until(sched); d > 0 {
						if !sleepCtx(ctx, d) {
							return
						}
					}
					if fire(uint64(i)*2654435761 + uint64(w)) {
						// Latency from SCHEDULED time: queueing delay is
						// charged to the server (no coordinated omission).
						record(time.Since(sched).Microseconds())
					}
				}
			}(w)
		}
	} else {
		deadline := start.Add(cfg.Duration)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := uint64(w); time.Now().Before(deadline); i += uint64(cfg.Workers) {
					t0 := time.Now()
					if fire(i*2654435761 + uint64(w)) {
						record(time.Since(t0).Microseconds())
					}
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	// The transport may hold a connection it dialed but never sent a
	// request on; the server sees it in StateNew, which Shutdown treats as
	// idle only after 5 s, so the 5 s drain would overrun. Closing the
	// client's idle connections first lets the drain finish at once.
	client.CloseIdleConnections()
	scancel()
	if err := <-srvErr; err != nil {
		return nil, fmt.Errorf("serve bench: server (%s/%s): %w", mode, loop, err)
	}

	pt.Completed = completed.Load()
	pt.Errors = errors.Load()
	pt.Rejected = rejected.Load()
	pt.Verified = verified.Load()
	pt.Incorrect = incorrect.Load()
	pt.Versions = len(versions)
	if co != nil {
		st := co.Stats()
		if st.Waves > 0 {
			pt.MeanWave = float64(st.Batched) / float64(st.Waves)
		}
		pt.MaxWave = st.MaxWave
	}
	return &phaseRun{pt: pt, lat: lat, elapsed: elapsed}, nil
}

// pctl reads a percentile off a sorted latency slice.
func pctl(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Grid renders the per-phase table.
func (r *ServeResult) Grid() *Grid {
	g := NewGrid("mode", "loop", "throughput_qps", "p50_us", "p99_us", "p999_us", "completed", "verified", "rejected", "mean_wave")
	verbs := []string{"%s", "%s", "%.0f", "%d", "%d", "%d", "%d", "%d", "%d", "%.1f"}
	for _, p := range r.Points {
		g.Rowf(verbs, p.Mode, p.Loop, p.ThroughputQPS, p.P50us, p.P99us, p.P999us, p.Completed, p.Verified, p.Rejected, p.MeanWave)
	}
	return g
}

// WriteJSON emits the result in the BENCH_serve.json shape.
func (r *ServeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
