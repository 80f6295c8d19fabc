package main

import (
	"math"
	"runtime/metrics"
	"time"
)

// layerServe derives the serve-* per-layer metrics from the trace, the
// background record and the plan. start is the window start and elapsed
// the window's length, up to the last response.
func layerServe(m metricSet, spans []span, p *plan, bg *background, s *stack, start time.Time, elapsed time.Duration, allSorted []float64, epoch time.Time) {
	off := int64(start.Sub(epoch))

	// Handler spans of the window's find requests, joined to their
	// client-side record by request id.
	var handler, transport []float64
	for _, sp := range byName(spans, spanHandler) {
		if sp.req < 0 || sp.req >= int64(len(p.reqs)) || p.reqs[sp.req].kind != kindFind {
			continue
		}
		r := &p.reqs[sp.req]
		hd := float64(sp.end-sp.start) / 1e3
		handler = append(handler, hd)
		transport = append(transport, float64(r.done-r.send)/1e3-hd)
	}
	handler, transport = sortedCopy(handler), sortedCopy(transport)
	m.put("serve.handler_p50_us", pct(handler, 0.5))
	m.put("serve.handler_p99_us", pct(handler, 0.99))
	m.put("http.transport_p50_us", pct(transport, 0.5))

	// Publishes made during the window (the set-up's first one is not).
	var publishes []span
	var fulls, fullBytes, deltaBytes, n int64
	for v, pub := range s.published {
		if pub.start.Before(start) {
			continue
		}
		n++
		publishes = append(publishes, span{start: int64(pub.start.Sub(epoch)), end: int64(pub.end.Sub(epoch)), req: int64(v)})
		if pub.full {
			fulls++
			fullBytes += pub.bytes
		} else {
			deltaBytes += pub.bytes
		}
	}
	m.put("replica.publishes", float64(n))
	m.put("replica.publish_ms", meanDur(publishes, time.Millisecond))
	if n > 0 {
		m.put("replica.full_frac", float64(fulls)/float64(n))
	}
	if fulls > 0 {
		m.put("replica.full_mb", float64(fullBytes)/float64(fulls)/(1<<20))
	}
	if n > fulls {
		m.put("replica.delta_kb", float64(deltaBytes)/float64(n-fulls)/(1<<10))
	}

	var installs []span
	var errs int
	for _, sr := range bg.syncs {
		if sr.err != nil {
			errs++
		}
		if sr.installed {
			installs = append(installs, span{start: int64(sr.start.Sub(epoch)), end: int64(sr.end.Sub(epoch)), req: int64(sr.version)})
		}
	}
	m.put("replica.installs", float64(len(installs)))
	m.put("replica.sync_errors", float64(errs))
	m.put("replica.sync_ms", meanDur(installs, time.Millisecond))

	// Freshness: from a Publish returning to the end of the first install
	// that serves that version or a later one.
	var fresh []float64
	for _, pb := range publishes {
		for _, in := range installs {
			if uint64(in.req) >= uint64(pb.req) && in.end > pb.end {
				fresh = append(fresh, float64(in.end-pb.end)/1e6)
				break
			}
		}
	}
	if len(fresh) > 0 {
		m.put("replica.fresh_ms", median(fresh))
	}

	m.put("concurrent.compactions", float64(len(bg.compacts)))
	m.put("concurrent.compact_ms", meanDur(bg.compacts, time.Millisecond))

	// Tail attribution: of the requests slower than the run's p99, the
	// share whose [due, done] interval overlaps each kind of background
	// event. A failed request counts as lasting to the end of the window.
	p99 := pct(allSorted, 0.99)
	end := off + int64(elapsed)
	runUs := float64(elapsed) / 1e3
	var slow, inCompact, inPublish, inInstall, inGC int
	for i := range p.reqs {
		r := &p.reqs[i]
		if r.latencyUs(runUs) <= p99 {
			continue
		}
		slow++
		a, b := off+r.due, off+r.done
		if !r.ok {
			b = end
		}
		inCompact += overlaps(bg.compacts, a, b)
		inPublish += overlaps(publishes, a, b)
		inInstall += overlaps(installs, a, b)
		inGC += overlaps(bg.gcWindows, a, b)
	}
	if slow > 0 {
		m.put("tail.compact_frac", float64(inCompact)/float64(slow))
		m.put("tail.publish_frac", float64(inPublish)/float64(slow))
		m.put("tail.sync_frac", float64(inInstall)/float64(slow))
		m.put("tail.gc_frac", float64(inGC)/float64(slow))
	}
}

// overlaps is 1 when some span intersects [a, b], else 0.
func overlaps(spans []span, a, b int64) int {
	for _, s := range spans {
		if s.start <= b && a <= s.end {
			return 1
		}
	}
	return 0
}

// rtSample is a reading of the runtime's own counters.
type rtSample struct {
	gcCycles, allocs uint64
	gcCPU, totalCPU  float64
	sched            *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return rtSample{
		gcCycles: s[0].Value.Uint64(), allocs: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
		sched: s[4].Value.Float64Histogram(),
	}
}

// layerRuntime reports what the runtime did between two readings; ops
// is the number of operations completed in between.
func layerRuntime(m metricSet, a, b rtSample, ops float64) {
	m.put("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m.put("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
	m.put("runtime.alloc_bytes_per_op", float64(b.allocs-a.allocs)/ops)

	// p99 of the goroutine scheduling latencies observed in between, read
	// off the histogram's bucket upper bounds.
	var total uint64
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if total > 0 && seen >= target {
			ub := b.sched.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = b.sched.Buckets[i]
			}
			m.put("runtime.sched_p99_us", ub*1e6)
			return
		}
	}
}
