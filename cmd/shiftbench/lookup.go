package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
)

// segment is how many lookups one timing sample covers.
const segment = 1 << 16

// lane is the batch width of the batch phase: the core pipeline's width
// and the coalescer's widest wave.
const lane = 256

// runLookup measures lookup-dram or lookup-gens: a closed loop of one
// goroutine over a pool sampled from the live keys, scalar Find, then
// lane-wide FindBatchTagged, on each of several fresh set-ups.
func runLookup(ctx context.Context, cfg config, tr *tracer, res *runResult) error {
	sc := cfg.sc
	keys, err := dataset.Generate(dataset.Face, 64, sc.keys, cfg.seed)
	if err != nil {
		return err
	}
	var ws []write
	if sc.writes > 0 {
		ws = makeWrites(keys, sc.writes, cfg.seed)
	}
	live := liveKeys(keys, ws)
	pool, want := samplePool(live, sc.pool, cfg.seed)
	if cfg.plantWrong {
		want[len(want)/2]++
	}

	// Each set-up gets an equal share of the window, so a layout that
	// happens to be slow on one set-up moves the medians only by its share.
	share := time.Duration(cfg.seconds / float64(sc.setups) * float64(time.Second))
	var setups, scalarSeg, batchSeg, single, calls []float64
	// Per set-up: the 10th percentile of its segments' ns per lookup.
	var scalarP10, batchP10 []float64
	var cpu time.Duration
	var ops int64
	for k := 0; k < sc.setups; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		release()
		t0 := time.Now()
		ix, err := concurrent.New(keys, concurrent.Config{})
		if err != nil {
			return err
		}
		err = applyWrites(ix, ws, nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			ix.Close()
			return err
		}
		if k == 0 {
			res.E2E.put("heap_mb", heapMB())
			res.E2E.put("index_bytes_per_key", float64(ix.SizeBytes())/float64(ix.Len()))
			if tr != nil {
				res.Layer.put("concurrent.gens", float64(ix.Published().Gens()))
			}
		}
		lp := lookupPass{ix: ix, pool: pool, want: want, tr: tr}
		lp.warm()
		c0 := cpuTime()
		lp.run(share)
		cpu += cpuTime() - c0
		scalarP10 = append(scalarP10, pct(sortedCopy(lp.scalarSeg), 0.1))
		batchP10 = append(batchP10, pct(sortedCopy(lp.batchSeg), 0.1))
		scalarSeg, batchSeg = append(scalarSeg, lp.scalarSeg...), append(batchSeg, lp.batchSeg...)
		single, calls = append(single, lp.single...), append(calls, lp.calls...)
		ops += lp.ops
		res.Verified += lp.ops - lp.bad
		res.Incorrect += lp.bad
		ix.Close()
	}
	res.Attempted, res.Failed = ops, res.Incorrect
	res.E2E.put("setup_s", median(setups))
	// Other guests on the host slow some segments by up to half, coming
	// and going within a second, so each set-up contributes the fastest
	// tenth of its segments; memory layout differs between set-ups, so the
	// median over set-ups is reported. Between runs this spread about half
	// as much as the median over all segments.
	res.E2E.put("find_ns", median(scalarP10))
	res.E2E.put("find_batch_ns", median(batchP10))
	res.info("find_ns_median", median(scalarSeg), "ns")
	res.info("find_batch_ns_median", median(batchSeg), "ns")
	res.info("segments", float64(len(scalarSeg)+len(batchSeg)), "count")
	single, calls = sortedCopy(single), sortedCopy(calls)
	res.info("find_p99_us", pct(single, 0.99), "us")
	res.info("batch_p99_us", pct(calls, 0.99), "us")
	res.info("cpu_us_per_op", cpu.Seconds()*1e6/float64(max(ops, 1)), "us")
	res.info("find_p999_us", pct(single, 0.999), "us")
	res.info("find_max_us", pct(single, 1), "us")
	res.info("find_samples", float64(len(single)), "count")
	res.info("batch_p999_us", pct(calls, 0.999), "us")
	res.info("batch_max_us", pct(calls, 1), "us")
	res.info("batch_samples", float64(len(calls)), "count")
	res.info("fail_frac", float64(res.Failed)/float64(max(ops, 1)), "ratio")

	if tr == nil {
		return nil
	}
	ladderWant := want
	if len(ws) > 0 {
		ladderWant = lowerBounds(keys, pool)
	}
	return ladder(ctx, keys, ws, pool, ladderWant, cfg.seed, res.Layer)
}

// samplePool draws size queries from the live keys. Each answer is the
// key's position, moved back over any duplicates before it: the rank
// derived by scanning, independent of every index under test.
func samplePool(live []uint64, size int, seed int64) (pool []uint64, want []int) {
	rng := rand.New(rand.NewSource(seed + 11))
	pool, want = make([]uint64, size), make([]int, size)
	for i := range pool {
		j := rng.Intn(len(live))
		q := live[j]
		for j > 0 && live[j-1] == q {
			j--
		}
		pool[i], want[i] = q, j
	}
	return pool, want
}

// lookupPass runs timed loops over one index, checking every answer.
type lookupPass struct {
	ix     *concurrent.Index[uint64]
	pool   []uint64
	want   []int
	tr     *tracer
	out    []int
	si, bi int // where the scalar and the batch loop are in the pool

	scalarSeg, batchSeg []float64 // ns per lookup, one sample per segment
	single              []float64 // µs per timed Find call (every 64th)
	calls               []float64 // µs per FindBatchTagged call
	ops, bad            int64
}

// warm runs one untimed pass so caches and lazily built scratch are in
// place before timing starts.
func (p *lookupPass) warm() {
	p.out = make([]int, 0, lane)
	for i := 0; i+lane <= len(p.pool); i += lane {
		p.out, _ = p.ix.FindBatchTagged(p.pool[i:i+lane], p.out[:0])
	}
}

// run alternates a segment of scalar Find calls with a segment of
// lane-wide FindBatchTagged calls for d, so the two samples see the same
// moments of a shared host.
func (p *lookupPass) run(d time.Duration) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		p.scalar()
		p.batch()
	}
}

// scalar times one segment of Find calls, and on its own every 64th call.
func (p *lookupPass) scalar() {
	i, bad := p.si, int64(0)
	t0 := time.Now()
	for j := 0; j < segment; j++ {
		var r int
		if j&63 == 0 {
			s := time.Now()
			r = p.ix.Find(p.pool[i])
			p.single = append(p.single, float64(time.Since(s))/float64(time.Microsecond))
		} else {
			r = p.ix.Find(p.pool[i])
		}
		if r != p.want[i] {
			bad++
		}
		if i++; i == len(p.pool) {
			i = 0
		}
	}
	t1 := time.Now()
	p.scalarSeg = append(p.scalarSeg, float64(t1.Sub(t0))/segment)
	p.tr.add(spanFindBlock, spanNone, 0, t0, t1)
	p.si, p.ops, p.bad = i, p.ops+segment, p.bad+bad
}

// batch times one segment of FindBatchTagged calls, lane keys each, and
// each call on its own.
func (p *lookupPass) batch() {
	i, bad := p.bi, int64(0)
	t0 := time.Now()
	for j := 0; j < segment; j += lane {
		if i+lane > len(p.pool) {
			i = 0
		}
		s := time.Now()
		p.out, _ = p.ix.FindBatchTagged(p.pool[i:i+lane], p.out[:0])
		e := time.Now()
		p.calls = append(p.calls, float64(e.Sub(s))/float64(time.Microsecond))
		bad += int64(mismatches(p.out, p.want[i:]))
		i += lane
	}
	t1 := time.Now()
	p.batchSeg = append(p.batchSeg, float64(t1.Sub(t0))/segment)
	p.tr.add(spanFindBatch, spanNone, 0, t0, t1)
	p.bi, p.ops, p.bad = i, p.ops+segment, p.bad+bad
}
