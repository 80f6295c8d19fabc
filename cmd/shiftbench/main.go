// Command shiftbench is the repository's benchmark: four workloads that
// measure the Shift-Table lookup path from the core layer out to the
// HTTP serving stack under churn, with every answer verified.
//
// Usage:
//
//	shiftbench [-workload all|lookup-dram|lookup-gens|serve-read|serve-churn]
//	           [-seed 1] [-seconds 15] [-trace 0|1] [-repeats 3]
//	           [-out .bench_build/shiftbench-out]
//
// Each (workload, repeat) runs in a fresh child process of this binary;
// repeats alternate the workload order. The parent prints one
// "workload metric value unit" line per metric (the median over
// repeats), writes <out>/results.json with quartiles, sample counts and
// the machine it ran on, and ends with one JSON line of the benchmark
// contract when a single workload was selected. With -trace 1 a further
// traced child per workload records spans to <out>/trace/<workload>.jsonl
// and reports the per-layer metrics and the tracing overhead.
//
// Exit status: 0 when every answer verified, 2 when any answer was
// wrong, 1 on any other failure. See README.md for the workloads and the
// metric glossary.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed for the dataset, query pool and write stream")
	seconds := flag.Float64("seconds", 15, "measured window of each run, in seconds")
	trace := flag.Int("trace", 0, "1: also run a traced child per workload and report per-layer metrics")
	repeats := flag.Int("repeats", 3, "untraced runs per workload")
	out := flag.String("out", filepath.Join(".bench_build", "shiftbench-out"), "directory for results, traces and the serving stack's files")
	child := flag.Bool("child", false, "run one measurement in this process and print its result (used by the parent)")
	flag.Parse()

	var selected []string
	switch {
	case *workload == "all":
		selected = workloads
	case slices.Contains(workloads, *workload):
		selected = []string{*workload}
	default:
		fmt.Fprintf(os.Stderr, "shiftbench: unknown workload %q (want all or one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 1
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "shiftbench: -trace must be 0 or 1")
		return 1
	}
	if *seconds <= 0 || *repeats < 1 {
		fmt.Fprintln(os.Stderr, "shiftbench: -seconds must be positive and -repeats at least 1")
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *child {
		cfg := config{workload: selected[0], seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, sc: defaultScale(selected[0])}
		res, err := runOne(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			return 1
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}

	p := parent{seed: *seed, seconds: *seconds, out: *out}
	rep, err := p.runAll(ctx, selected, *repeats, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	path := filepath.Join(*out, "results.json")
	if err := rep.save(path); err != nil {
		fmt.Fprintln(os.Stderr, "shiftbench:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "shiftbench: wrote", path)
	if len(selected) == 1 {
		b, err := json.Marshal(rep.contract(selected[0], *trace == 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			return 1
		}
		fmt.Println(string(b))
	}
	if rep.incorrect() > 0 {
		return 2
	}
	return 0
}

// parent runs children and summarises their results.
type parent struct {
	seed    int64
	seconds float64
	out     string
}

// runAll runs repeats untraced children per workload, alternating the
// workload order, then one traced child per workload when trace is set.
func (p parent) runAll(ctx context.Context, selected []string, repeats int, trace bool) (*report, error) {
	rep := &report{
		Machine: machine(p.out), Seed: p.seed, Seconds: p.seconds, Repeats: repeats,
		Workloads: map[string]*summary{},
	}
	for _, w := range selected {
		rep.Workloads[w] = &summary{}
	}
	for r := 0; r < repeats; r++ {
		order := slices.Clone(selected)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := p.child(ctx, w, false)
			if err != nil {
				return nil, err
			}
			rep.Workloads[w].runs = append(rep.Workloads[w].runs, res)
		}
	}
	if trace {
		for _, w := range selected {
			res, err := p.child(ctx, w, true)
			if err != nil {
				return nil, err
			}
			rep.Workloads[w].traced = res
		}
	}
	for _, s := range rep.Workloads {
		s.finish()
	}
	return rep, nil
}

// child re-executes this binary for one run and parses the result it
// prints as its last line. The child is killed if it outlives its time
// budget or ctx.
func (p parent) child(ctx context.Context, workload string, trace bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Two children (untraced and traced) must end well inside 3 minutes.
	budget := 30*time.Second + time.Duration(3*p.seconds*float64(time.Second))
	cctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(cctx, self, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(p.seed, 10), "-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-trace", t, "-out", p.out)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	fmt.Fprintf(os.Stderr, "shiftbench: %s trace=%s seed=%d\n", workload, t, p.seed)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace=%s): %w", workload, t, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &runResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: reading child result: %w", workload, err)
	}
	return res, nil
}

// stat summarises one metric over repeats.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summary is one workload's runs and their summary.
type summary struct {
	runs   []*runResult
	traced *runResult

	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Incorrect int64            `json:"incorrect"`
	Verified  int64            `json:"verified"`
	E2E       map[string]stat  `json:"e2e"`
	Info      map[string]stat  `json:"info"`
	Layer     metricSet        `json:"layer,omitempty"`
	TraceInfo metricSet        `json:"trace_info,omitempty"`
	Overhead  map[string]value `json:"tracing_overhead,omitempty"`
}

func (s *summary) finish() {
	s.E2E = summarise(s.runs, func(r *runResult) metricSet { return r.E2E })
	s.Info = summarise(s.runs, func(r *runResult) metricSet { return r.Info })
	all := slices.Clone(s.runs)
	if s.traced != nil {
		all = append(all, s.traced)
		s.Layer, s.TraceInfo = s.traced.Layer, s.traced.Info
		s.Overhead = map[string]value{}
		for name, st := range s.E2E {
			s.Overhead[name] = value{s.traced.E2E[name].Value - st.Median, st.Unit}
		}
	}
	for _, r := range all {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Incorrect += r.Incorrect
		s.Verified += r.Verified
	}
}

// summarise takes each metric's median and quartiles over runs.
func summarise(runs []*runResult, pick func(*runResult) metricSet) map[string]stat {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for name, v := range pick(r) {
			vals[name] = append(vals[name], v.Value)
			units[name] = v.Unit
		}
	}
	out := map[string]stat{}
	for name, xs := range vals {
		q1, q3 := quartiles(xs)
		out[name] = stat{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: units[name]}
	}
	return out
}

// report is the run record written to results.json.
type report struct {
	Machine   map[string]string   `json:"machine"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Repeats   int                 `json:"repeats"`
	Workloads map[string]*summary `json:"workloads"`
}

func (r *report) incorrect() int64 {
	var n int64
	for _, s := range r.Workloads {
		n += s.Incorrect
	}
	return n
}

// print writes one "workload metric value unit" line per metric: the
// gated end-to-end metrics, informational rows, and with a traced run the
// per-layer metrics and the tracing overhead.
func (r *report) print(out io.Writer) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	line := func(wl, name string, v float64, unit string) {
		fmt.Fprintf(w, "%s %s %s %s\n", wl, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	for _, wl := range workloads {
		s, ok := r.Workloads[wl]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			line(wl, d.name, s.E2E[d.name].Median, d.unit)
		}
		for _, name := range slices.Sorted(maps.Keys(s.Info)) {
			line(wl, "info."+name, s.Info[name].Median, s.Info[name].Unit)
		}
		if s.traced == nil {
			continue
		}
		for _, d := range perLayer {
			line(wl, d.name, s.Layer[d.name].Value, d.unit)
		}
		for _, name := range slices.Sorted(maps.Keys(s.TraceInfo)) {
			line(wl, "trace."+name, s.TraceInfo[name].Value, s.TraceInfo[name].Unit)
		}
		for _, d := range endToEnd {
			line(wl, "overhead."+d.name, s.Overhead[d.name].Value, d.unit)
		}
	}
}

func (r *report) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractResult is the last line the benchmark prints for one workload.
type contractResult struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contract reports the workload's end-to-end medians, or its per-layer
// metrics when traced.
func (r *report) contract(workload string, traced bool) contractResult {
	s := r.Workloads[workload]
	c := contractResult{
		Correct:   s.Incorrect == 0 && s.Verified > 0,
		Attempted: s.Attempted, Failed: s.Failed,
		Metrics: map[string]value{},
	}
	if traced {
		for _, d := range perLayer {
			c.Metrics[d.name] = s.Layer[d.name]
		}
		return c
	}
	for _, d := range endToEnd {
		c.Metrics[d.name] = value{s.E2E[d.name].Median, d.unit}
	}
	return c
}

// machine records what the numbers were measured on.
func machine(out string) map[string]string {
	m := map[string]string{
		"cpu":        "unknown",
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     "unknown",
		"commit":     "unknown",
		"store_fs":   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m["kernel"] = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m["commit"] += "+modified"
				}
			}
		}
	}
	if err := os.MkdirAll(out, 0o755); err == nil {
		m["store_fs"] = fsType(out)
	}
	return m
}
