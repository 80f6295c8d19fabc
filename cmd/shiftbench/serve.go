package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// publishEvery is serve-churn's publish cadence.
const publishEvery = time.Second

// warmIDs offsets the warm-up's request ids past the window's.
const warmIDs = 1 << 40

// maxLagUs is the median send lateness above which a serve-read run is
// invalid.
const maxLagUs = 200

// background is what the goroutines beside the load generator saw during
// the window. Each slice is written by one goroutine and read after it
// stopped.
type background struct {
	syncs      []syncRec
	writeUs    []float64
	writes     int64
	compacts   []span
	gcWindows  []span
	queueMax   int
	genSamples []int
}

// syncRec is one Replica.Sync call.
type syncRec struct {
	start, end time.Time
	installed  bool
	version    uint64
	err        error
}

// runServe measures serve-read or serve-churn.
func runServe(ctx context.Context, cfg config, tr *tracer, res *runResult) error {
	sc := cfg.sc
	keys, err := dataset.Generate(dataset.Face, 64, sc.keys, cfg.seed)
	if err != nil {
		return err
	}
	pool := serve.QueryPool(cfg.seed+1, sc.pool, keys[len(keys)-1]+2)
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = traceHandler(tr)
	}

	// Every set-up but the last is torn down again; the last serves the
	// window.
	work := filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	var setups []float64
	var s *stack
	for k := 0; k < sc.setups; k++ {
		release()
		var d time.Duration
		s, d, err = startStack(ctx, filepath.Join(work, fmt.Sprintf("stack-%d", k)), keys, wrap)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if k < sc.setups-1 {
			if err := s.close(); err != nil {
				return err
			}
		}
	}
	defer s.close()
	res.E2E.put("setup_s", median(setups))
	res.E2E.put("heap_mb", heapMB())
	ix := s.rep.Index()
	res.E2E.put("index_bytes_per_key", float64(ix.SizeBytes())/float64(ix.Len()))

	// The open loop takes the first openShare of the window and the
	// closed loop over the Handler the rest, with the background running
	// through both.
	total := time.Duration(cfg.seconds * float64(time.Second))
	window := time.Duration(float64(total) * openShare)
	p := newPlan(pool, sc.rate, window, cfg.seed)
	g := newLoadgen(s.base, tr)
	defer g.close()
	// Open the connections and warm the path with a short burst that is
	// verified like the window.
	warm := newPlan(pool, sc.rate, 250*time.Millisecond, cfg.seed+1)
	g.run(ctx, warm, time.Now(), warmIDs)
	if cfg.plantFail {
		if err := s.stopServer(); err != nil {
			return err
		}
	}

	var ws []write
	if sc.writeRate > 0 {
		ws = makeWrites(keys, int(sc.writeRate*(cfg.seconds+1)), cfg.seed)
	}
	co0, served0, rejected0 := s.co.Stats(), s.h.Served(), s.h.Rejected()
	rt0 := readRuntime()
	rebuilds0 := s.primary.Rebuilds()
	bctx, stopBG := context.WithCancel(ctx)
	bg := &background{}
	var bgWG sync.WaitGroup
	start := time.Now()
	c0 := cpuTime()
	bgWG.Add(1)
	go func() { defer bgWG.Done(); syncLoop(bctx, s, tr, bg) }()
	var wErr error
	if len(ws) > 0 {
		bgWG.Add(1)
		go func() { defer bgWG.Done(); wErr = writeLoop(bctx, s, ws, sc.writeRate, start, tr, bg) }()
	}
	if tr != nil {
		bgWG.Add(1)
		go func() { defer bgWG.Done(); pollLoop(bctx, s, tr, bg) }()
	}
	g.run(ctx, p, start, 0)
	cpu := cpuTime() - c0
	elapsed := time.Since(start)
	rt1 := readRuntime()
	co1, served1, rejected1 := s.co.Stats(), s.h.Served(), s.h.Rejected()
	oc := newOracles(s, pool)
	cl, clErr := handlerPhase(ctx, s.h, oc, total-window, cfg.seed)
	stopBG()
	bgWG.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if wErr != nil {
		return fmt.Errorf("primary writes: %w", wErr)
	}
	if clErr != nil {
		return clErr
	}

	v0 := time.Now()
	bad, checked, err := verify(oc, warm, p, cfg.plantWrong)
	if err != nil {
		return err
	}
	verifyS := time.Since(v0).Seconds()
	tr.add(spanVerify, spanNone, 0, v0, time.Now())

	// The gated latencies come from the closed loop: the repository's
	// request path with warm caches, estimated as on lookup-* by the
	// fastest tenth of the segments. The open loop's latencies are
	// informational rows; on a shared host they follow its neighbours.
	res.E2E.put("find_ns", pct(sortedCopy(cl.find), 0.1))
	res.E2E.put("find_batch_ns", pct(sortedCopy(cl.batch), 0.1))
	res.info("find_ns_median", median(cl.find), "ns")
	res.info("find_batch_ns_median", median(cl.batch), "ns")
	res.info("segments", float64(len(cl.find)+len(cl.batch)), "count")

	// Counts and the open loop's latencies.
	var completed, refused, failed int64
	lat := [3][]float64{}
	var all, lag []float64
	runUs := float64(elapsed) / 1e3
	for i := range p.reqs {
		r := &p.reqs[i]
		switch {
		case r.ok:
			completed++
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			refused++
		default:
			failed++
		}
		l := r.latencyUs(runUs)
		lat[r.kind] = append(lat[r.kind], l)
		all = append(all, l)
		if r.send > 0 || r.done > 0 {
			lag = append(lag, float64(r.send-r.due)/1e3)
		}
	}
	for k := range lat {
		lat[k] = sortedCopy(lat[k])
	}
	allSorted, lag := sortedCopy(all), sortedCopy(lag)
	requests := int64(len(p.reqs)) + cl.calls
	res.Attempted = requests + bg.writes
	res.Failed = refused + failed + bad + cl.failed + cl.bad
	res.Incorrect = bad + cl.bad
	res.Verified = checked + cl.checked - res.Incorrect
	find := lat[kindFind]
	res.info("cpu_us_per_op", cpu.Seconds()*1e6/float64(max(completed, 1)), "us")

	for k, name := range kindNames {
		l := lat[k]
		res.info(name+"_p50_us", pct(l, 0.5), "us")
		res.info(name+"_p99_us", pct(l, 0.99), "us")
		res.info(name+"_p999_us", pct(l, 0.999), "us")
		res.info(name+"_max_us", pct(l, 1), "us")
		res.info(name+"_samples", float64(len(l)), "count")
	}
	res.info("p99_all_us", pct(allSorted, 0.99), "us")
	res.info("offered_qps", float64(len(p.reqs))/window.Seconds(), "1/s")
	res.info("achieved_qps", float64(completed)/elapsed.Seconds(), "1/s")
	res.info("refused", float64(refused), "count")
	res.info("errors", float64(failed), "count")
	res.info("fail_frac", float64(res.Failed)/float64(max(requests, 1)), "ratio")
	res.info("lag_p50_us", pct(lag, 0.5), "us")
	res.info("verify_s", verifyS, "s")
	res.info("versions_published", float64(len(s.published)), "count")
	res.info("compactions", float64(s.primary.Rebuilds()-rebuilds0), "count")
	res.info("served", float64(served1-served0), "count")
	// A generator that sends late measures itself, not the server. The
	// limit holds for the benchmark's own scale; shrunken runs in tests
	// share the CPUs with other packages' tests and only record the lag.
	if cfg.workload == "serve-read" && cfg.sc == defaultScale(cfg.workload) && pct(lag, 0.5) > maxLagUs {
		return fmt.Errorf("serve-read: the load generator sent %.0f µs late at p50 (limit %d µs); the run is invalid", pct(lag, 0.5), maxLagUs)
	}
	if len(ws) > 0 {
		w := sortedCopy(bg.writeUs)
		res.info("write_p99_us", pct(w, 0.99), "us")
		res.info("write_p999_us", pct(w, 0.999), "us")
		res.info("writes", float64(bg.writes), "count")
	}
	if tr == nil {
		return nil
	}

	m := res.Layer
	m.put("gen.lag_p50_us", pct(lag, 0.5))
	m.put("gen.lag_p99_us", pct(lag, 0.99))
	m.put("gen.verify_s", verifyS)
	layerServe(m, tr.recorded(), p, bg, s, start, elapsed, allSorted, tr.epoch)
	// The three request-path shares should add up to the client's p50.
	if p50 := pct(find, 0.5); p50 > 0 {
		res.info("attrib_ratio", (m["gen.lag_p50_us"].Value+m["http.transport_p50_us"].Value+m["serve.handler_p50_us"].Value)/p50, "ratio")
	}
	m.put("serve.waves", float64(co1.Waves-co0.Waves))
	if w := co1.Waves - co0.Waves; w > 0 {
		m.put("serve.mean_wave", float64(co1.Batched-co0.Batched)/float64(w))
	}
	m.put("serve.rejected", float64(rejected1-rejected0))
	m.put("serve.queue_max", float64(bg.queueMax))
	layerRuntime(m, rt0, rt1, float64(max(completed, 1)))
	m.put("concurrent.write_us", pct(sortedCopy(bg.writeUs), 0.99))
	if len(bg.genSamples) > 0 {
		sum := 0
		for _, n := range bg.genSamples {
			sum += n
		}
		m.put("concurrent.gens", float64(sum)/float64(len(bg.genSamples)))
	}
	if err := s.close(); err != nil {
		return err
	}
	return ladder(ctx, keys, nil, pool, lowerBounds(keys, pool), cfg.seed, m)
}

// writeLoop drives serve-churn's primary: ws at rate writes/s from
// start, and a Publish every publishEvery, all on this one goroutine so
// each captured state is exactly what its Publish ships.
func writeLoop(ctx context.Context, s *stack, ws []write, rate float64, start time.Time, tr *tracer, bg *background) error {
	next := start.Add(publishEvery)
	done := 0
	for {
		if err := sleepUntil(ctx, time.Now().Add(time.Millisecond)); err != nil {
			return nil
		}
		now := time.Now()
		due := min(int(now.Sub(start).Seconds()*rate), len(ws))
		if err := applyWrites(s.primary, ws[done:due], tr, &bg.writeUs); err != nil {
			return err
		}
		bg.writes += int64(due - done)
		done = due
		if now.After(next) {
			next = next.Add(publishEvery)
			p, err := s.publish(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			tr.add(spanPublish, spanNone, 0, p.start, p.end)
		}
	}
}

// syncLoop syncs the replica every syncEvery, as shiftserver's watch
// loop does.
func syncLoop(ctx context.Context, s *stack, tr *tracer, bg *background) {
	for {
		if sleepUntil(ctx, time.Now().Add(syncEvery)) != nil {
			return
		}
		before := s.rep.Status().Version
		t0 := time.Now()
		err := s.rep.Sync(ctx)
		t1 := time.Now()
		if ctx.Err() != nil {
			return
		}
		v := s.rep.Status().Version
		rec := syncRec{start: t0, end: t1, installed: v != before, version: v, err: err}
		bg.syncs = append(bg.syncs, rec)
		name := uint8(spanSync)
		if rec.installed {
			name = spanInstall
		}
		tr.add(name, spanNone, 0, t0, t1)
	}
}

// pollLoop samples, every millisecond, what has no span of its own: the
// primary's compaction flag, completed GC cycles, the coalescer queue,
// and the serving index's generation depth.
func pollLoop(ctx context.Context, s *stack, tr *tracer, bg *background) {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	gcs := sample[0].Value.Uint64()
	var compactStart time.Time
	prev := time.Now()
	for {
		if sleepUntil(ctx, prev.Add(time.Millisecond)) != nil {
			return
		}
		now := time.Now()
		if s.primary.Compacting() {
			if compactStart.IsZero() {
				compactStart = prev
			}
		} else if !compactStart.IsZero() {
			bg.compacts = append(bg.compacts, span{start: int64(compactStart.Sub(tr.epoch)), end: int64(now.Sub(tr.epoch))})
			tr.add(spanCompact, spanNone, 0, compactStart, now)
			compactStart = time.Time{}
		}
		metrics.Read(sample)
		if n := sample[0].Value.Uint64(); n != gcs {
			gcs = n
			bg.gcWindows = append(bg.gcWindows, span{start: int64(prev.Sub(tr.epoch)), end: int64(now.Sub(tr.epoch))})
			tr.add(spanGC, spanNone, 0, prev, now)
		}
		bg.queueMax = max(bg.queueMax, s.co.QueueDepth())
		bg.genSamples = append(bg.genSamples, s.rep.Index().Published().Gens())
		prev = now
	}
}

// verify checks every answer of the warm-up and the open loop against the
// scan-derived oracle of the version that produced it, computed after the
// window from the states captured before each Publish. It returns the
// number of wrong answers and of answers checked.
func verify(oc *oracles, warm, p *plan, plantWrong bool) (bad, checked int64, err error) {
	for _, pl := range []*plan{warm, p} {
		for i := range pl.reqs {
			r := &pl.reqs[i]
			if !r.ok {
				continue
			}
			o := oc.ranks(r.version)
			if o == nil {
				return 0, 0, fmt.Errorf("answer %v names a version that was never published", r)
			}
			switch r.kind {
			case kindFind:
				if plantWrong {
					o[r.a]++
					plantWrong = false
				}
				checked++
				if r.r0 != o[r.a] {
					bad++
				}
			case kindRange:
				checked++
				if r.r0 != o[r.a] || r.r1 != o[r.b] {
					bad++
				}
			default:
				for j, ix := range pl.batchIdx[r.a : r.a+batchKeys] {
					checked++
					if pl.batchRank[int(r.a)+j] != o[ix] {
						bad++
					}
				}
			}
		}
	}
	return bad, checked, nil
}
