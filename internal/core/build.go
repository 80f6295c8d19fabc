package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
)

// This file is the build pipeline (DESIGN.md §8): the paper's Alg. 2 —
// one pass over the keys, one over the layer, empty partitions
// backfilled from the next non-empty one (§3.1) — as a stream. While the
// partition ids are non-decreasing over the sorted keys, as under a
// monotone model (§3.8), each partition's keys are one run, and its
// entry is final when the run ends. Each worker walks one shard of the
// keys, cut at a partition start, predicting a chunk at a time, checks
// the keys are sorted and the ids never fall, and writes the entries
// straight into the packed layer at a guessed width; a second pass
// rewrites them when the narrowest width that fits (§3.9) is another.
// Nothing else of size N or M is allocated. Where the ids fall, the
// accumulator builds the same entries from predictions made in parallel
// and per-partition statistics.
// Every worker count gives the same table bit for bit (parallel_test.go,
// fuzz_test.go).

// parallelBuildMin is the key count below which sharding is not worth the
// goroutine fan-out and builds take one worker.
const parallelBuildMin = 4096

// chunk is the number of keys a build worker predicts per PredictBatch
// call.
const chunk = 512

var (
	errUnsorted = errors.New("core: keys are not sorted")
	errFell     = errors.New("core: partition ids fell") // the accumulator builds the table
)

// Build constructs a Shift-Table over sorted keys corrected against the
// given model (Alg. 2 plus the empty-partition backfill of §3.1). Build is
// O(N · cost(Fθ) + M), with the model runs spread over GOMAXPROCS
// workers (§3.3: "in case that running the model is expensive, model
// executions can be parallelized for faster execution"). Build returns an
// error for more than math.MaxInt32 keys.
func Build[K kv.Key](keys []K, model cdfmodel.Model[K], cfg Config) (*Table[K], error) {
	return buildPipeline(keys, model, cfg, runtime.GOMAXPROCS(0))
}

// BuildNext builds a successor table through Build's pipeline with the
// given worker count (workers <= 0 uses GOMAXPROCS) and hands prev's
// batch-scratch pool to the new table, so a rebuild chain — internal/
// concurrent's compaction, through updatable.NewFrom — does not
// re-allocate query scratch. The pool carries no table-specific state:
// every scratch slot is written before it is read within a chunk. A nil
// prev is a fresh build.
func (prev *Table[K]) BuildNext(keys []K, model cdfmodel.Model[K], cfg Config, workers int) (*Table[K], error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t, err := buildPipeline(keys, model, cfg, workers)
	if t != nil && prev != nil {
		t.scratch = prev.scratch
	}
	return t, err
}

// buildPipeline is the implementation behind Build and BuildNext.
func buildPipeline[K kv.Key](keys []K, model cdfmodel.Model[K], cfg Config, workers int) (*Table[K], error) {
	n := len(keys)
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d keys, the build limit is %d", n, math.MaxInt32)
	}
	// The config is checked before the empty-table return: an empty
	// table's layer blob records its mode, which viewLayer validates.
	if cfg.M < 0 {
		return nil, fmt.Errorf("core: invalid layer size M=%d", cfg.M)
	}
	if cfg.SampleStride < 0 {
		return nil, fmt.Errorf("core: negative sample stride %d", cfg.SampleStride)
	}
	if cfg.Mode != ModeRange && cfg.Mode != ModeMidpoint {
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	t := &Table[K]{keys: keys, model: model, mode: cfg.Mode, monotone: model.Monotone(), scratch: new(sync.Pool)}
	if n == 0 {
		return t, nil
	}
	t.n, t.m = n, cmp.Or(cfg.M, n)

	stride := 1
	if cfg.Mode == ModeMidpoint && cfg.SampleStride > 1 {
		stride = cfg.SampleStride
	}
	// A sampled build's partitions are runs of sampled keys, which a cut
	// at a partition start would not respect, so it takes one worker.
	if stride > 1 || n < parallelBuildMin {
		workers = 1
	}
	sh := t.shards(workers)
	err := t.stream(sh, stride)
	if errors.Is(err, errFell) { // accumulate checks the keys the stream did not
		err = t.accumulate(sh, stride)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// shard is one worker's part of the stream: keys[lo:hi), owning the
// layer entries [from, to), with its prediction buffer. When the build
// keeps its predictions, saved is the build's array of them (slot i/stride
// holds key i's) and keys[lo:done) have theirs in it.
type shard[K kv.Key] struct {
	lo, hi, from, to int
	pred             []int
	saved            []int32
	done             int
}

// predict returns the predictions of the keys of keys[c0:c1) the build
// reads, all of them or the multiples of stride (§3.4), and saves them
// if the build keeps them.
func (s *shard[K]) predict(model cdfmodel.Model[K], keys []K, c0, c1, stride int) []int {
	pred, at := s.pred[:c1-c0], (c0+stride-1)/stride // at: the first sampled key's slot
	if stride == 1 {
		cdfmodel.PredictBatch(model, keys[c0:c1], pred)
	} else {
		pred = pred[:0]
		for i := at * stride; i < c1; i += stride {
			pred = append(pred, model.Predict(keys[i]))
		}
	}
	if s.saved != nil {
		for j, p := range pred {
			s.saved[at+j] = int32(p)
		}
		s.done = c1
	}
	return pred
}

// keepPredictions gives the shards one array for the predictions of the
// keys the build reads, none made yet.
func keepPredictions[K kv.Key](sh []shard[K], n, stride int) {
	saved := make([]int32, (n+stride-1)/stride)
	for i := range sh {
		sh[i].saved, sh[i].done = saved, sh[i].lo
	}
}

// shards cuts the keys into up to workers shards, each starting at the
// first key of a partition. The binary search assumes the partition ids
// are non-decreasing, which the first pass verifies; whatever the model,
// a cut's key lies in a higher partition than the key before it, so it
// is also a new key value, where §3.2's run tracking restarts.
func (t *Table[K]) shards(workers int) []shard[K] {
	part := func(i int) int { return t.partitionOf(t.model.Predict(t.keys[i])) }
	sh := []shard[K]{{pred: make([]int, chunk)}}
	for w := 1; w < workers; w++ {
		start := max(spread(w, workers, t.n), sh[len(sh)-1].lo+1)
		if start >= t.n {
			break
		}
		prev := part(start - 1)
		at := start + sort.Search(t.n-start, func(i int) bool { return part(start+i) > prev })
		if at == t.n {
			break
		}
		from := part(at)
		sh[len(sh)-1].hi, sh[len(sh)-1].to = at, from
		sh = append(sh, shard[K]{lo: at, from: from, pred: make([]int, chunk)})
	}
	sh[len(sh)-1].hi, sh[len(sh)-1].to = t.n, int(driftEntries(t.mode, t.m))
	return sh
}

// stream builds the layer, one goroutine per shard. The first pass
// checks the keys are sorted (errUnsorted) and the partition ids never
// fall (errFell), and writes the entries at a guessed width; when they
// need another, a second pass writes them again at that one. A model
// that does not declare itself monotone may fall, and late, so the walks
// keep its predictions for accumulate.
func (t *Table[K]) stream(sh []shard[K], stride int) error {
	if !t.monotone {
		keepPredictions(sh, t.n, stride)
	}
	maxAbs := make([]int64, len(sh))
	width, verify := t.guessWidth(), true
	for {
		d := makeDriftArray(width, int(driftEntries(t.mode, t.m)))
		err := parallel(len(sh), func(s int) (err error) {
			switch width {
			case 1:
				maxAbs[s], err = walk(t, &sh[s], stride, verify, d.w8)
			case 2:
				maxAbs[s], err = walk(t, &sh[s], stride, verify, d.w16)
			case 4:
				maxAbs[s], err = walk(t, &sh[s], stride, verify, d.w32)
			default:
				maxAbs[s], err = walk(t, &sh[s], stride, verify, d.w64)
			}
			return err
		})
		t.drift = d
		if err != nil || driftWidth(slices.Max(maxAbs)) == width {
			return err
		}
		width, verify = driftWidth(slices.Max(maxAbs)), false
	}
}

// guessWidth guesses the entry width from the drift |i − p| of 256
// evenly spaced keys. At M = N a key's drift lies between its
// partition's entry and the next one, so the guess is never too wide
// there; a wrong one costs a second pass.
func (t *Table[K]) guessWidth() uint8 {
	var maxAbs int64
	for s := range 256 {
		i := spread(s, 255, t.n-1)
		d := int64(i - t.model.Predict(t.keys[i]))
		maxAbs = max(maxAbs, d, -d)
	}
	return driftWidth(maxAbs)
}

// spread returns ⌊i·n/count⌋, the i-th of count even cuts of [0, n],
// computed in 64 bits: i·n overflows a 32-bit int from n ≈ 2^31/i.
func spread(i, count, n int) int {
	return int(int64(i) * int64(n) / int64(count))
}

// parallel runs f(0) … f(count−1), each on its own goroutine when there
// are several, and joins their errors.
func parallel(count int, f func(s int) error) error {
	if count == 1 {
		return f(0)
	}
	errs := make([]error, count)
	var wg sync.WaitGroup
	for s := range count {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = f(s)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// entry lists the packed entry types, one per width.
type entry interface{ int8 | int16 | int32 | int64 }

// sink writes a walk's entries into the layer, truncated to its width,
// and tracks their magnitude. Each width is its own instantiation, so
// the write is a direct store.
type sink[E entry] struct {
	dst    []E
	maxAbs int64
}

func (o *sink[E]) put(k int, v int64) {
	o.maxAbs = max(o.maxAbs, v, -v)
	o.dst[k] = E(v)
}

// walk runs one shard of the stream, writing entries s.from … s.to−1 into
// dst, and returns their magnitude; with verify it also checks the keys
// are sorted. Under monotone predictions a query in partition k lands in
// or just after k's run, from any prediction p in k's feasible range
// [pmin, pmax] (Eq. 5–6 generalised to M<N). So range mode stores
// lo[k] = first(k) − pmax(k), first(k) the first position of the first
// non-empty partition at or after k (§3.1; DESIGN.md §4 on Alg. 2's
// pseudo-code), which at M = N is the paper's Δk; the lookup ends k's
// window at lo[k+1] + span(k), where the next run starts. Midpoint mode
// stores the rounded mean drift of k's keys (Eq. 7); an empty partition
// aims at the next run's first position from mid-range. The shard's last
// key lies below partition s.to (the next cut), so an id at or past s.to
// must fall later: walk stops there, inside its own entries.
func walk[K kv.Key, E entry](t *Table[K], s *shard[K], stride int, verify bool, dst []E) (int64, error) {
	keys, out := t.keys, sink[E]{dst: dst}
	cur := s.from - 1 // the partition of the keys read so far
	first := s.lo     // first position of the current duplicate run (§3.2)
	var sum, cnt int64
	for c0 := s.lo; c0 < s.hi; c0 += chunk {
		c1 := min(c0+chunk, s.hi)
		if verify && !kv.IsSorted(keys[max(c0-1, 0):c1]) {
			return 0, errUnsorted
		}
		pred := s.predict(t.model, keys, c0, c1, stride)
		if t.mode == ModeRange {
			for j, p := range pred {
				k := t.partitionOf(p)
				if k <= cur {
					if k < cur {
						return 0, errFell
					}
					continue
				}
				if k >= s.to {
					return 0, errFell
				}
				for ; cur < k; cur++ {
					out.put(cur+1, int64(c0+j)-t.pmax(cur+1))
				}
			}
			continue
		}
		j := 0
		for i := c0; i < c1; i++ {
			if i > s.lo && keys[i] != keys[i-1] {
				first = i
			}
			if stride > 1 && i%stride != 0 {
				continue
			}
			p := pred[j]
			j++
			if k := t.partitionOf(p); k != cur {
				if k < cur || k >= s.to {
					return 0, errFell
				}
				if cnt > 0 {
					out.put(cur, roundHalfAway(float64(sum)/float64(cnt))) // Eq. 7
				}
				for e := cur + 1; e < k; e++ {
					out.put(e, int64(first)-t.aim(e))
				}
				cur, sum, cnt = k, 0, 0
			}
			sum += int64(first - p)
			cnt++
		}
	}
	// The partitions after the shard's last run backfill from the next
	// shard's first position, or N (range entry M is N − pmax(M) = 0).
	if t.mode == ModeRange {
		for ; cur+1 < s.to; cur++ {
			out.put(cur+1, int64(s.hi)-t.pmax(cur+1))
		}
		return out.maxAbs, nil
	}
	if cnt > 0 {
		out.put(cur, roundHalfAway(float64(sum)/float64(cnt)))
	}
	for e := cur + 1; e < s.to; e++ {
		out.put(e, int64(s.hi)-t.aim(e))
	}
	return out.maxAbs, nil
}

// accumulate builds the layer for a model whose partition ids fell over
// the keys, so its partitions are not runs: the shards predict, in
// parallel, the keys whose predictions the stream did not keep, then one
// sweep gathers each partition's first position, key count and
// (midpoint) drift sum, and one backward pass derives the entries as
// walk defines them. Such a range layer's windows do not all cover their
// keys (DESIGN.md §8), so the table clears monotone and the windows
// become §3.8 hints that Find validates.
func (t *Table[K]) accumulate(sh []shard[K], stride int) error {
	n, m, keys := t.n, t.m, t.keys
	if sh[0].saved == nil {
		keepPredictions(sh, n, stride)
	}
	_ = parallel(len(sh), func(w int) error {
		s := &sh[w]
		for c0 := s.done; c0 < s.hi; c0 += chunk {
			c1 := min(c0+chunk, s.hi)
			s.predict(t.model, keys, c0, c1, stride)
		}
		return nil
	})
	pred := sh[0].saved

	minPos := make([]int64, m+1) // becomes range mode's lower bounds
	cnt := make([]int32, m)
	var sum []int64
	if t.mode == ModeMidpoint {
		sum = make([]int64, m) // becomes midpoint mode's shifts
	}
	first, j := 0, 0
	for i := range n {
		if i > 0 && keys[i] != keys[i-1] {
			if keys[i] < keys[i-1] {
				return errUnsorted
			}
			first = i
		}
		if stride > 1 && i%stride != 0 {
			continue
		}
		p := int(pred[j])
		j++
		k := t.partitionOf(p)
		if cnt[k] == 0 {
			minPos[k] = int64(first) // first only grows with i
		}
		cnt[k]++
		if sum != nil {
			sum[k] += int64(first - p)
		}
	}

	var maxAbs int64
	nextFirst := int64(n) // first position of the nearest non-empty partition to the right
	minPos[m] = 0         // partition M: answer N, predicted at N (pmax)
	for k := m - 1; k >= 0; k-- {
		if cnt[k] > 0 {
			nextFirst = minPos[k]
		}
		v := nextFirst - t.pmax(k)
		if sum == nil {
			minPos[k] = v
		} else {
			v = nextFirst - t.aim(k)
			if cnt[k] > 0 {
				v = roundHalfAway(float64(sum[k]) / float64(cnt[k])) // Eq. 7
			}
			sum[k] = v
		}
		maxAbs = max(maxAbs, v, -v)
	}
	vals := sum
	if sum == nil {
		vals = minPos
		t.monotone = false
	}
	t.drift = makeDriftArray(driftWidth(maxAbs), len(vals))
	t.drift.store(vals)
	return nil
}
