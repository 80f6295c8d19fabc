// Package router implements a range-partitioned hybrid index on top of the
// unified backend abstraction (internal/index): the key space is split
// into contiguous shards, and for each shard the §3.7 cost model —
// generalised to the per-backend CostEstimator capability — picks the
// cheapest backend over a training sample. Heterogeneous key
// distributions (a smooth region here, a drift-heavy region there, long
// duplicate runs elsewhere) thus get a Shift-Table where correction pays
// for its extra lookup, a bare interpolation where it does not, and a
// B+tree where even corrected windows stay wide — per region, not per
// dataset.
//
// The router itself implements the full index contract: scalar Find,
// BatchFinder (scatter to shards, reuse each shard's native batch
// pipeline, gather in input order), Tracer where every shard has a twin,
// and CostEstimator (the query-weighted mean of its shards).
package router

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/search"
)

// DefaultLatency is an analytic stand-in for the measured L(s) curve
// (§2.3): one non-cached probe plus one more miss per binary-search
// decade. Use bench.FitLatencyFn over a measured curve for
// machine-accurate routing; the analytic shape preserves the orderings
// the router's argmin needs.
func DefaultLatency(s int) float64 {
	return 60 + 14*search.Log2N(s)
}

// Config controls router construction.
type Config struct {
	// Shards is the number of key-space partitions. 0 derives one shard
	// per ~16k keys, clamped to [4, 64]: fine enough that shard cuts
	// track distribution changes (a coarse grid mixes regimes inside one
	// shard and flattens the routing advantage), small enough that the
	// routing array stays a few cache lines.
	Shards int
	// Backends names the candidate registry backends evaluated per shard.
	// nil means the default slate: IM (bare model), IM+ST (corrected),
	// B+tree, RS, BS.
	Backends []string
	// Latency is the L(s) curve parameterising the cost model; nil means
	// DefaultLatency.
	Latency func(s int) float64
	// TrainMax caps the per-shard training sample the candidates are
	// built on for cost evaluation (the winner is rebuilt on the full
	// shard when sampling engaged). 0 means 131072, which covers the
	// default shard size entirely — estimates are then exact-scale.
	// Sampling below the shard size trades build time for a known
	// approximation: backends whose cost grows with n (trees, binary
	// search) are underpriced by the log-factor between sample and
	// shard, while ε-bounded backends are not.
	TrainMax int
	// Seed drives training-query sampling for backends without a
	// CostEstimator (their cost is measured, not estimated).
	Seed int64
}

// DefaultBackends is the default candidate slate: a bare interpolation
// model (wins where the CDF is smooth), the Shift-Table-corrected model
// (wins where drift dominates), a B+tree (wins where even corrected
// windows stay wide, e.g. heavy duplicate congestion), a radix spline,
// and binary search as the always-applicable floor.
func DefaultBackends() []string {
	return []string{"IM", "IM+ST", "B+tree", "RS", "BS"}
}

func (c *Config) defaults() {
	if c.Backends == nil {
		c.Backends = DefaultBackends()
	}
	if c.Latency == nil {
		c.Latency = DefaultLatency
	}
	if c.TrainMax == 0 {
		c.TrainMax = 131072
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Choice records the routing decision for one shard.
type Choice struct {
	Backend  string  // winning backend name
	EstNs    float64 // its cost estimate on the training sample
	FirstKey uint64  // shard's first key
	Len      int     // keys in the shard
	Measured bool    // true when the cost was measured, not model-estimated
}

// Router is a built hybrid index over a sorted key slice.
type Router[K kv.Key] struct {
	keys    []K
	bounds  []K   // bounds[i] = first key of shard i (strictly increasing)
	offs    []int // offs[i] = global rank of shard i's first key
	shards  []index.Index[K]
	choices []Choice
	n       int
}

// New builds the router: shard the key space (never splitting a duplicate
// run), evaluate every candidate backend's §3.7 cost on a per-shard
// training sample, build the cheapest per shard. Shards build
// concurrently — candidate training, cost evaluation and the full-scale
// winner build are independent per shard — capped at GOMAXPROCS workers;
// each shard draws from its own deterministic rng stream (seeded from
// Config.Seed and the shard index), so the routing table is reproducible
// for a given seed regardless of scheduling. Backends priced by
// measurement rather than cost model see slightly noisier timings while
// neighbouring shards build; the default slate is fully cost-modelled.
func New[K kv.Key](keys []K, cfg Config) (*Router[K], error) {
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("router: keys are not sorted")
	}
	cfg.defaults()
	r := &Router[K]{keys: keys, n: len(keys)}
	if r.n == 0 {
		return r, nil
	}
	cuts := shardCuts(keys, cfg.Shards)
	nsh := len(cuts) - 1
	r.bounds = make([]K, nsh)
	r.offs = make([]int, nsh)
	r.shards = make([]index.Index[K], nsh)
	r.choices = make([]Choice, nsh)
	errs := make([]error, nsh)
	workers := runtime.GOMAXPROCS(0)
	if workers > nsh {
		workers = nsh
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < nsh; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			lo, hi := cuts[i], cuts[i+1]
			shard := keys[lo:hi]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9E3779B9))
			ix, choice, err := pickBackend(shard, &cfg, rng)
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d [%v, …): %w", i, shard[0], err)
				return
			}
			choice.FirstKey = uint64(shard[0])
			choice.Len = len(shard)
			r.bounds[i] = shard[0]
			r.offs[i] = lo
			r.shards[i] = ix
			r.choices[i] = choice
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// shardCuts returns the shard boundary positions [0, …, n]: equal-count
// targets snapped to duplicate-run starts so a run never straddles two
// shards (local lower bound + offset must equal the global lower bound).
func shardCuts[K kv.Key](keys []K, shards int) []int {
	n := len(keys)
	if shards == 0 {
		shards = n / 16384
		if shards < 4 {
			shards = 4
		}
		if shards > 64 {
			shards = 64
		}
	}
	if shards > n {
		shards = n
	}
	cuts := []int{0}
	for i := 1; i < shards; i++ {
		p := i * n / shards
		// Snap to the first occurrence of keys[p]; if that collapses into
		// the previous cut (one giant run), skip past the run instead.
		p2 := kv.LowerBound(keys, keys[p])
		if p2 <= cuts[len(cuts)-1] {
			p2 = kv.UpperBound(keys, keys[p])
		}
		if p2 <= cuts[len(cuts)-1] || p2 >= n {
			continue
		}
		cuts = append(cuts, p2)
	}
	return append(cuts, n)
}

// pickBackend evaluates the candidate slate on a training sample of the
// shard and builds the winner over the full shard keys.
func pickBackend[K kv.Key](shard []K, cfg *Config, rng *rand.Rand) (index.Index[K], Choice, error) {
	sample := shard
	if len(sample) > cfg.TrainMax {
		stride := (len(shard) + cfg.TrainMax - 1) / cfg.TrainMax
		sample = make([]K, 0, len(shard)/stride+1)
		for i := 0; i < len(shard); i += stride {
			sample = append(sample, shard[i])
		}
	}
	best := Choice{EstNs: 1e300}
	var bestIx index.Index[K]
	for _, name := range cfg.Backends {
		be, err := index.Get[K](name)
		if err != nil {
			return nil, Choice{}, err
		}
		if be.Applicable(shard) != "" {
			continue // N/A on the full shard (e.g. ART over duplicates)
		}
		trained, err := be.Build(sample)
		if err != nil {
			continue
		}
		ns, measured := estimateNs(trained, sample, cfg.Latency, rng)
		if ns < best.EstNs {
			best = Choice{Backend: name, EstNs: ns, Measured: measured}
			bestIx = trained
		}
	}
	if best.Backend == "" {
		return nil, Choice{}, fmt.Errorf("no applicable backend among %v", cfg.Backends)
	}
	// With no sampling the winner was already built over the full shard;
	// otherwise rebuild it at full scale.
	if len(sample) == len(shard) {
		return bestIx, best, nil
	}
	ix, err := index.Build[K](best.Backend, shard)
	if err != nil {
		return nil, Choice{}, err
	}
	return ix, best, nil
}

// estimateNs prices one trained candidate: through its CostEstimator
// capability when it has one (Eq. 9/10 generalised), by timing lookups on
// the training sample otherwise.
func estimateNs[K kv.Key](ix index.Index[K], sample []K, l func(s int) float64, rng *rand.Rand) (float64, bool) {
	if ce, ok := ix.(index.CostEstimator); ok {
		return ce.EstimateNs(l), false
	}
	probes := 512
	if probes > len(sample) {
		probes = len(sample)
	}
	if probes == 0 {
		return 0, true
	}
	qs := make([]K, probes)
	for i := range qs {
		qs[i] = sample[rng.Intn(len(sample))]
	}
	sink := 0
	start := time.Now()
	for _, q := range qs {
		sink += ix.Find(q)
	}
	if sink == -1 {
		panic("unreachable; defeats dead-code elimination")
	}
	return float64(time.Since(start).Nanoseconds()) / float64(probes), true
}

// routeOf returns the shard index serving q: the last shard whose first
// key is <= q (queries below every shard route to shard 0, whose local
// Find answers 0).
func (r *Router[K]) routeOf(q K) int {
	s := kv.UpperBound(r.bounds, q) - 1
	if s < 0 {
		s = 0
	}
	return s
}

// Find returns the global lower-bound rank of q. Shard boundaries never
// split duplicate runs, so the shard-local rank plus the shard's base
// offset is exactly the global rank.
func (r *Router[K]) Find(q K) int {
	if r.n == 0 {
		return 0
	}
	s := r.routeOf(q)
	return r.offs[s] + r.shards[s].Find(q)
}

// Lookup pairs Find with an existence check.
func (r *Router[K]) Lookup(q K) (pos int, found bool) {
	pos = r.Find(q)
	return pos, pos < r.n && r.keys[pos] == q
}

// FindBatch answers a batch of lower-bound queries: scatter queries to
// their shards, reuse each shard's native batch pipeline (BatchFinder
// capability — the Shift-Table shards run their staged predict/gather/
// probe engine), and gather results in input order.
func (r *Router[K]) FindBatch(qs []K, out []int) []int {
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = make([]int, len(qs))
	}
	if r.n == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	nsh := len(r.shards)
	// Counting scatter: route every query, bucket stably by shard.
	route := make([]int32, len(qs))
	count := make([]int32, nsh+1)
	for i, q := range qs {
		s := r.routeOf(q)
		route[i] = int32(s)
		count[s+1]++
	}
	for s := 0; s < nsh; s++ {
		count[s+1] += count[s]
	}
	scatterQ := make([]K, len(qs))
	scatterIdx := make([]int32, len(qs))
	fill := make([]int32, nsh)
	for i, q := range qs {
		s := route[i]
		at := count[s] + fill[s]
		scatterQ[at] = q
		scatterIdx[at] = int32(i)
		fill[s]++
	}
	res := make([]int, 0, 256)
	for s := 0; s < nsh; s++ {
		lo, hi := int(count[s]), int(count[s+1])
		if lo == hi {
			continue
		}
		res = index.FindBatch(r.shards[s], scatterQ[lo:hi], res)
		off := r.offs[s]
		for j, v := range res {
			out[scatterIdx[lo+j]] = off + v
		}
	}
	return out
}

// TraceFind is the instrumented twin of Find when the routed shard has
// one; shards without a twin charge only their routing probe.
func (r *Router[K]) TraceFind(q K, touch search.Touch) int {
	if r.n == 0 {
		return 0
	}
	s := r.routeOf(q)
	touch(kv.Addr(r.bounds, s), kv.Width[K]())
	if trace := index.TraceFindFn(r.shards[s]); trace != nil {
		return r.offs[s] + trace(q, touch)
	}
	return r.offs[s] + r.shards[s].Find(q)
}

// Len returns the number of indexed keys.
func (r *Router[K]) Len() int { return r.n }

// Keys returns the indexed keys (read-only).
func (r *Router[K]) Keys() []K { return r.keys }

// Name identifies the backend in benchmark output.
func (r *Router[K]) Name() string { return "router" }

// SizeBytes sums the shard footprints plus the routing arrays.
func (r *Router[K]) SizeBytes() int {
	total := len(r.bounds)*kv.Width[K]() + len(r.offs)*8
	for _, s := range r.shards {
		total += s.SizeBytes()
	}
	return total
}

// EstimateNs implements the CostEstimator capability for the router
// itself: the routing probe (in-cache for realistic shard counts, priced
// at one short search over the bounds array) plus the query-weighted mean
// of the shard estimates (assuming, as the paper's Eq. 9 does, that
// queries follow the data distribution).
func (r *Router[K]) EstimateNs(l func(s int) float64) float64 {
	if r.n == 0 {
		return 0
	}
	var acc float64
	for i, s := range r.shards {
		var ns float64
		if ce, ok := s.(index.CostEstimator); ok {
			ns = ce.EstimateNs(l)
		} else {
			ns = r.choices[i].EstNs
		}
		acc += ns * float64(s.Len())
	}
	return l(len(r.bounds))/4 + acc/float64(r.n)
}

// Shards returns the number of key-space partitions.
func (r *Router[K]) Shards() int { return len(r.shards) }

// Choices returns the per-shard routing decisions, in key order.
func (r *Router[K]) Choices() []Choice {
	out := make([]Choice, len(r.choices))
	copy(out, r.choices)
	return out
}

// DistinctBackends returns how many different backends the router chose.
func (r *Router[K]) DistinctBackends() int {
	seen := map[string]bool{}
	for _, c := range r.choices {
		seen[c.Backend] = true
	}
	return len(seen)
}

// Describe renders the routing table for reports and examples.
func (r *Router[K]) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router: %d keys in %d shards\n", r.n, len(r.shards))
	for i, c := range r.choices {
		src := "cost model"
		if c.Measured {
			src = "measured"
		}
		fmt.Fprintf(&b, "  shard %2d  first-key %-20d len %-8d -> %-7s (%.0f ns est, %s)\n",
			i, c.FirstKey, c.Len, c.Backend, c.EstNs, src)
	}
	return b.String()
}
