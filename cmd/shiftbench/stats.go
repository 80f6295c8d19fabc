package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one reported metric and its unit. The gated lists
// mirror BENCHMARK.json; main_test.go checks the two agree.
type metricDef struct {
	name, unit string
}

// endToEnd is what every run reports, for every workload, and what
// BENCHMARK.json bounds. The README's glossary says what each means on
// lookup-* and serve-*, and why open-loop latencies, tails and CPU per
// operation are reported as informational rows instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"index_bytes_per_key", "B/key"},
	{"find_ns", "ns"},
	{"find_batch_ns", "ns"},
}

// perLayer is what every traced run reports. A layer a workload does not
// exercise reads 0 (no publishes on lookup-dram, for example).
var perLayer = []metricDef{
	{"core.find_ns", "ns"},
	{"core.find_batch_ns", "ns"},
	{"core.window_log2", "log2"},
	{"updatable.find_batch_ns", "ns"},
	{"concurrent.find_batch_ns", "ns"},
	{"concurrent.find1_ns", "ns"},
	{"concurrent.gen_ns", "ns"},
	{"concurrent.gens", "count"},
	{"concurrent.write_us", "us"},
	{"concurrent.compactions", "count"},
	{"concurrent.compact_ms", "ms"},
	{"replica.publish_ms", "ms"},
	{"replica.publishes", "count"},
	{"replica.full_frac", "ratio"},
	{"replica.full_mb", "MB"},
	{"replica.delta_kb", "KB"},
	{"replica.sync_ms", "ms"},
	{"replica.installs", "count"},
	{"replica.sync_errors", "count"},
	{"replica.fresh_ms", "ms"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.mean_wave", "count"},
	{"serve.waves", "count"},
	{"serve.rejected", "count"},
	{"serve.queue_max", "count"},
	{"serve.coalescer_find_ns", "ns"},
	{"serve.handler_find_ns", "ns"},
	{"http.transport_p50_us", "us"},
	{"http.rtt_us", "us"},
	{"gen.lag_p50_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"gen.verify_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.sched_p99_us", "us"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"tail.compact_frac", "ratio"},
	{"tail.publish_frac", "ratio"},
	{"tail.sync_frac", "ratio"},
	{"tail.gc_frac", "ratio"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's numbers by name.
type metricSet map[string]value

// put records a gated metric, taking its unit from the tables above.
func (m metricSet) put(name string, v float64) {
	mustBeFinite(name, v)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				m[name] = value{v, d.unit}
				return
			}
		}
	}
	panic(fmt.Sprintf("shiftbench: metric %q is in neither table", name))
}

// mustBeFinite panics on a value JSON cannot carry. Every metric is
// derived so that it is finite, failures included; one that is not would
// otherwise surface only as a result the parent cannot encode.
func mustBeFinite(name string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		panic(fmt.Sprintf("shiftbench: metric %q is %v", name, v))
	}
}

// pct reads the q-quantile (nearest rank) of sorted xs; 0 when empty.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// the spread the run record reports is the one BENCHMARK.json bounds.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// sortedCopy returns xs sorted, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
