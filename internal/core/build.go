package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
)

// This file is the build pipeline (DESIGN.md §8). Construction is the
// paper's Alg. 2 — one pass over the keys accumulating per-partition
// statistics, one backward pass over the layer deriving drift bounds and
// backfilling empty partitions (§3.1) — restructured so the expensive part
// scales with cores and the transient memory is reusable:
//
//  1. Model predictions are the dominant cost of pass 1 and are a pure map
//     over the keys, so every build computes them into a pre-sized
//     prediction arena with one worker per key range. A sampled build
//     (§3.4) predicts only every stride-th key.
//  2. Once predictions are fixed, the per-partition accumulation is
//     independent per partition. With a monotone model (§3.8) predictions
//     are non-decreasing over the sorted keys, so each partition's keys are
//     one contiguous range: shard the key range on partition starts and
//     every worker owns a disjoint span of partitions, writing min/end/sum
//     directly into the single shared accumulator arena — no per-worker
//     copies, no merge. (Single-worker builds, sampled builds and
//     non-monotone predictions accumulate on one goroutine; duplicate runs
//     never straddle shards because equal keys share a prediction and
//     hence a partition.)
//  3. Pass 2 derives the drift bounds in place over the same arena,
//     tracking the value magnitudes as it goes, so the packed entry width
//     (§3.9) needs no extra reduction pass. Range mode keeps only the M+1
//     lower bounds; it checks on the way that every partition's window
//     derived from the next lower bound covers the window its own keys
//     need, and a table that fails the check does not trust its windows.
//
// Every worker count produces the same table bit for bit — widths, drifts
// and the monotone flag — property-tested in parallel_test.go and fuzzed
// in fuzz_test.go.

// parallelBuildMin is the key count below which sharding is not worth the
// goroutine fan-out and builds take one worker.
const parallelBuildMin = 4096

// buildArena holds the transient arrays of one build: the prediction arena
// of stage 1 and the per-partition accumulators that pass 2 then rewrites
// in place into drift bounds. Arenas carry no results — the finished table
// retains only its drift entries, freshly allocated at their packed width
// — so BuildNext can recycle them through Table.buildPool and steady-state
// compaction allocates only the packed product.
type buildArena struct {
	pred   []int32 // stage 1: per-key model predictions
	minPos []int64 // pass 1: first run position per partition; pass 2: lo drift (M+1 entries)
	endPos []int64 // pass 1: last position per partition
	sum    []int64 // pass 1: Σ drift per partition (midpoint mode only)
	cnt    []int32 // pass 1: keys per partition
}

// slices grows the arena to the build's sizes and returns the views;
// minPos has one extra slot for the entry that closes the last partition.
func (a *buildArena) slices(n, m int, needSum bool) (pred []int32, minPos, endPos, sumW []int64, cnt []int32) {
	if cap(a.pred) < n {
		a.pred = make([]int32, n)
	}
	pred = a.pred[:n]
	if cap(a.minPos) < m+1 {
		a.minPos = make([]int64, m+1)
	}
	minPos = a.minPos[:m]
	if cap(a.cnt) < m {
		a.cnt = make([]int32, m)
	}
	cnt = a.cnt[:m]
	clear(cnt)
	if cap(a.endPos) < m {
		a.endPos = make([]int64, m)
	}
	endPos = a.endPos[:m]
	if needSum {
		if cap(a.sum) < m {
			a.sum = make([]int64, m)
		}
		sumW = a.sum[:m]
	}
	return
}

// Build constructs a Shift-Table over sorted keys corrected against the
// given model (Alg. 2 plus the empty-partition backfill of §3.1). Build is
// O(N · cost(Fθ) + M), a single pass over the data and a single backward
// pass over the layer (§3.3), with the model runs spread over GOMAXPROCS
// workers (§3.3: "in case that running the model is expensive, model
// executions can be parallelized for faster execution"). The int32
// prediction arena and partition counts bound the input: Build returns an
// error for more than math.MaxInt32 keys.
func Build[K kv.Key](keys []K, model cdfmodel.Model[K], cfg Config) (*Table[K], error) {
	return buildPipeline(keys, model, cfg, runtime.GOMAXPROCS(0), nil)
}

// BuildNext builds a successor table through Build's pipeline with the
// given worker count (workers <= 0 uses GOMAXPROCS), drawing the build
// arena from prev's pool and handing both of prev's pools (batch scratches
// and build arenas) to the new table. Rebuild chains — internal/
// concurrent's compaction, through updatable.NewFrom — therefore
// re-allocate neither query scratch nor build scratch in steady state.
// Neither pool carries table-specific state: every batch-scratch slot is
// written before it is read within a chunk, and build arenas are
// re-initialised per build. A nil prev is a fresh build.
func (prev *Table[K]) BuildNext(keys []K, model cdfmodel.Model[K], cfg Config, workers int) (*Table[K], error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if prev == nil || prev.buildPool == nil {
		return buildPipeline(keys, model, cfg, workers, nil)
	}
	t, err := buildPipeline(keys, model, cfg, workers, prev.buildPool)
	if t != nil {
		t.scratch, t.buildPool = prev.scratch, prev.buildPool
	}
	return t, err
}

// buildPipeline is the implementation behind Build and BuildNext. pool,
// when non-nil, supplies (and gets back) the build arena.
func buildPipeline[K kv.Key](keys []K, model cdfmodel.Model[K], cfg Config, workers int, pool *sync.Pool) (*Table[K], error) {
	n := len(keys)
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d keys, the build limit is %d", n, math.MaxInt32)
	}
	if !kv.IsSorted(keys) {
		return nil, fmt.Errorf("core: keys are not sorted")
	}
	m := cfg.M
	if m == 0 {
		m = n
	}
	if m < 1 || n == 0 {
		if n == 0 {
			return &Table[K]{keys: keys, model: model, mode: cfg.Mode, monotone: model.Monotone(),
				scratch: new(sync.Pool), buildPool: new(sync.Pool)}, nil
		}
		return nil, fmt.Errorf("core: invalid layer size M=%d", cfg.M)
	}
	if cfg.SampleStride < 0 {
		return nil, fmt.Errorf("core: negative sample stride %d", cfg.SampleStride)
	}
	if cfg.Mode != ModeRange && cfg.Mode != ModeMidpoint {
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}

	t := &Table[K]{
		keys:      keys,
		model:     model,
		mode:      cfg.Mode,
		monotone:  model.Monotone(),
		n:         n,
		m:         m,
		scratch:   new(sync.Pool),
		buildPool: new(sync.Pool),
	}

	stride := 1
	if cfg.Mode == ModeMidpoint && cfg.SampleStride > 1 {
		stride = cfg.SampleStride
	}
	// Sampled builds leave the unsampled predictions unwritten, and the
	// stage B shard cuts would read them, so they take one worker.
	if stride > 1 || n < parallelBuildMin {
		workers = 1
	}

	var ar *buildArena
	if pool != nil {
		ar, _ = pool.Get().(*buildArena)
	}
	if ar == nil {
		ar = new(buildArena)
	}
	needSum := cfg.Mode == ModeMidpoint
	pred, minPos, endPos, sumW, cnt := ar.slices(n, m, needSum)

	// Pass 1 (Alg. 2 lines 3–9): accumulate per-partition statistics. With
	// a monotone model the keys of one partition form a contiguous run of
	// positions [minPos, endPos]; the drift bounds derive from that run in
	// pass 2.
	t.passOne(pred, minPos, endPos, sumW, cnt, stride, workers)

	// Pass 2: derive per-partition drift bounds in place — minPos becomes
	// the lo drift — and backfill empty partitions with pseudo-values
	// pointing at the first key of the next non-empty partition (§3.1 —
	// the paper's Alg. 2 pseudo-code reads from k−1, contradicting the
	// text; we implement the text, see DESIGN.md §4).
	//
	// For a query q in partition k, monotonicity gives: keys of partitions
	// < k are < q and keys of partitions > k are > q, so the answer lies in
	// [minPos[k], endPos[k]+1]. The query's own prediction p can be any
	// value in the partition's feasible range [pmin, pmax] (Eq. 5–6
	// generalised to M<N), so the relative bounds must cover the absolute
	// window from every such p:
	//
	//	lo[k] = minPos[k] − pmax,  hi[k] = endPos[k] − pmin.
	//
	// With M = N, pmin = pmax = k and these reduce exactly to the paper's
	// Δk = minPos−k and window length Ck (Alg. 2). Only lo is stored: the
	// lookup derives hi[k] as lo[k+1] + span(k), which equals it whenever
	// partition k's keys end where partition k+1's begin. The loop checks
	// that the derived bound covers hi[k] for every k; a non-monotone or
	// mis-declared model can fail it, and then the table clears monotone
	// so the windows become §3.8 hints that Find validates. Value
	// magnitudes are tracked as the bounds are produced, so packing needs
	// no extra reduction pass over the layer.
	loW := minPos[:m+1]
	loW[m] = 0 // partition M: answer N, predicted at N (predRange)
	covered := true
	var maxLo int64
	nextFirst := int64(n) // first position of the nearest non-empty partition to the right
	nextPmax := int64(n)  // pmax(k+1)
	for k := m - 1; k >= 0; k-- {
		pmin, pmax := t.predRange(k)
		var hi int64
		if cnt[k] > 0 {
			first := minPos[k]
			loW[k] = first - pmax
			hi = endPos[k] - pmin
			nextFirst = first
		} else {
			// Empty partition: any query landing here resolves exactly to
			// position nextFirst; encode a window whose just-after slot is
			// nextFirst for every feasible prediction.
			loW[k] = nextFirst - pmax
			hi = nextFirst - 1 - pmin
			if needSum {
				sumW[k] = nextFirst - (pmin+pmax)/2 // midpoint aim
			}
		}
		if loW[k+1]+nextPmax-pmin-1 < hi {
			covered = false
		}
		nextPmax = pmax
		maxLo = max(maxLo, loW[k], -loW[k])
	}

	switch cfg.Mode {
	case ModeRange:
		t.drift = packDriftsWidth(loW, driftWidth(maxLo))
		t.monotone = t.monotone && covered
	case ModeMidpoint:
		var maxMid int64
		for k := 0; k < m; k++ {
			v := sumW[k]
			if cnt[k] > 0 {
				// Rounded mean drift (Eq. 7). Round half away from zero:
				// the paper's Table 1 worked example yields Δ̄=−40 from a
				// mean of −40.2, i.e. not floor.
				v = roundHalfAway(float64(v) / float64(cnt[k]))
			}
			sumW[k] = v
			maxMid = max(maxMid, v, -v)
		}
		t.drift = packDriftsWidth(sumW, driftWidth(maxMid))
	}

	if pool != nil {
		pool.Put(ar)
	}
	return t, nil
}

// passOne is pass 1. Stage A computes the predictions into the arena with
// one worker per key range (a sampled build predicts only every stride-th
// key). Stage B accumulates: with several workers and a verified-monotone
// prediction array each worker owns a disjoint span of partitions (shards
// cut on partition starts) and writes straight into the shared
// accumulators; otherwise one goroutine accumulates over the whole range —
// the model sweep, the expensive part, stays parallel either way.
func (t *Table[K]) passOne(pred []int32, minPos, endPos, sumW []int64, cnt []int32, stride, workers int) {
	n, keys := t.n, t.keys

	// Stage A: predict. Monotone models must produce non-decreasing
	// predictions over sorted keys; verify while writing (cheap ALU against
	// an in-register neighbour) so a model mis-declaring Monotone degrades
	// to the one-goroutine accumulate instead of racing.
	var nonMonotone atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			prev := int32(math.MinInt32)
			for i := lo; i < hi; i++ {
				if stride > 1 && i%stride != 0 {
					continue
				}
				p := int32(t.model.Predict(keys[i]))
				pred[i] = p
				if p < prev {
					nonMonotone.Store(true)
				}
				prev = p
			}
		}(lo, hi)
	}
	wg.Wait()
	ordered := workers > 1 && t.monotone && !nonMonotone.Load()
	if ordered {
		// Seam check: stage A only verified within each worker's range.
		for w := 1; w < workers; w++ {
			if at := n * w / workers; at > 0 && at < n && pred[at] < pred[at-1] {
				ordered = false
				break
			}
		}
	}

	if !ordered {
		// One worker, or a non-monotone model (§3.8) whose partitions are
		// not contiguous key ranges: accumulate on one goroutine over the
		// precomputed predictions.
		for k := range minPos {
			minPos[k] = math.MaxInt64
			endPos[k] = math.MinInt64
		}
		clear(sumW)
		t.accumulatePred(pred, 0, n, stride, minPos, endPos, sumW, cnt)
		return
	}

	// Stage B: shard boundaries advanced to partition starts. A partition
	// start implies a new key value (equal keys share a prediction), so
	// §3.2 first-occurrence tracking restarts cleanly at every boundary,
	// and since predictions are non-decreasing each worker's partition
	// span is disjoint from every other's — direct writes, no merge.
	bounds := make([]int, 1, workers+1)
	for w := 1; w < workers; w++ {
		at := n * w / workers
		for at > 0 && at < n && t.partitionOf(int(pred[at])) == t.partitionOf(int(pred[at-1])) {
			at++
		}
		if at > bounds[len(bounds)-1] && at < n {
			bounds = append(bounds, at)
		}
	}
	bounds = append(bounds, n)

	for s := 0; s < len(bounds)-1; s++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// This worker's partition span; gaps between spans are
			// partitions no key maps to, left untouched (pass 2 reads
			// their accumulators only when cnt > 0).
			pLo := t.partitionOf(int(pred[lo]))
			pHi := t.partitionOf(int(pred[hi-1])) + 1
			for k := pLo; k < pHi; k++ {
				minPos[k] = math.MaxInt64
				endPos[k] = math.MinInt64
			}
			if sumW != nil {
				clear(sumW[pLo:pHi])
			}
			t.accumulatePred(pred, lo, hi, 1, minPos, endPos, sumW, cnt)
		}(bounds[s], bounds[s+1])
	}
	wg.Wait()
}

// accumulatePred is the pass 1 accumulation body over keys[lo:hi) with
// predictions read from the arena — run by every stage B worker over its
// shard, or once over the whole range. Keys whose index is not a multiple
// of stride were not predicted and are skipped (§3.4 sampling), though
// they still advance the §3.2 duplicate-run tracking. lo must be a
// duplicate-run start; the caller has initialised the accumulators for
// every partition the range can touch.
func (t *Table[K]) accumulatePred(pred []int32, lo, hi, stride int, minPos, endPos, sumW []int64, cnt []int32) {
	keys := t.keys
	firstOcc := lo
	for i := lo; i < hi; i++ {
		if i > lo && keys[i] != keys[i-1] {
			firstOcc = i
		}
		if stride > 1 && i%stride != 0 {
			continue
		}
		p := int(pred[i])
		k := t.partitionOf(p)
		if sumW != nil {
			sumW[k] += int64(firstOcc) - int64(p)
		}
		cnt[k]++
		if int64(firstOcc) < minPos[k] {
			minPos[k] = int64(firstOcc)
		}
		if int64(i) > endPos[k] {
			endPos[k] = int64(i)
		}
	}
}
