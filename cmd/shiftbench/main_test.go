package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallScale shrinks each workload so all four run in seconds.
func smallScale(workload string) scale {
	switch workload {
	case "lookup-dram":
		return scale{keys: 100_000, pool: 4096, setups: 2}
	case "lookup-gens":
		return scale{keys: 50_000, writes: 2048, pool: 4096, setups: 2}
	case "serve-read":
		return scale{keys: 50_000, pool: 2048, setups: 2, rate: 1000}
	default:
		return scale{keys: 50_000, pool: 2048, setups: 2, rate: 1000, writeRate: 2000}
	}
}

func smallRun(t *testing.T, workload string, trace, plantWrong bool) *runResult {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		out: t.TempDir(), sc: smallScale(workload), plantWrong: plantWrong,
	}
	res, err := runOne(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	return res
}

// benchmarkFile is the part of BENCHMARK.json the runs must honour.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestWorkloadsEmitEveryMetricVerified(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := smallRun(t, w, trace, false)
				if res.Incorrect != 0 || res.Verified == 0 {
					t.Fatalf("trace=%v: %d incorrect, %d verified", trace, res.Incorrect, res.Verified)
				}
				if res.Attempted <= 0 || res.Failed != 0 {
					t.Errorf("trace=%v: attempted %d, failed %d", trace, res.Attempted, res.Failed)
				}
				if _, ok := res.Info["lag_p50_us"]; !ok && strings.HasPrefix(w, "serve-") {
					t.Errorf("trace=%v: the generator's send lag was not recorded", trace)
				}
				for _, m := range bf.EndToEnd {
					if v, ok := res.E2E[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
						t.Errorf("trace=%v: end-to-end %s = %+v, want a positive value in %s", trace, m.Name, v, m.Unit)
					}
				}
				if !trace {
					continue
				}
				for _, m := range bf.PerLayer {
					if v, ok := res.Layer[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
				}
			}
		})
	}
}

// TestFailedRequestsAreReported stops the server after the warm-up, so
// every request of the window fails, and checks that the run still
// reports, counts the failures, and encodes as JSON in both the child's
// result and the contract line.
func TestFailedRequestsAreReported(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := config{
			workload: "serve-read", seed: 3, seconds: 1, trace: trace,
			out: t.TempDir(), sc: smallScale("serve-read"), plantFail: true,
		}
		res, err := runOne(context.Background(), cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		open := res.Info["find_samples"].Value + res.Info["range_samples"].Value + res.Info["batch_samples"].Value
		if open == 0 || float64(res.Failed) != open || res.Info["achieved_qps"].Value != 0 || res.Incorrect != 0 {
			t.Errorf("trace=%v: failed %d of %v open-loop requests, achieved %v/s, %d incorrect",
				trace, res.Failed, open, res.Info["achieved_qps"].Value, res.Incorrect)
		}
		// A failed request counts as lasting the whole open loop.
		if p50 := res.Info["find_p50_us"].Value; p50 <= 0 || p50 != res.Info["find_max_us"].Value {
			t.Errorf("trace=%v: open-loop find p50 %v, max %v; want both the open loop's length", trace, p50, res.Info["find_max_us"].Value)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("trace=%v: encoding the child's result: %v", trace, err)
		}
		rep := &report{Workloads: map[string]*summary{"serve-read": {runs: []*runResult{res}}}}
		if trace {
			rep.Workloads["serve-read"].traced = res
		}
		rep.Workloads["serve-read"].finish()
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("trace=%v: encoding the run record: %v", trace, err)
		}
		c := rep.contract("serve-read", trace)
		if _, err := json.Marshal(c); err != nil || c.Failed < res.Failed {
			t.Fatalf("trace=%v: contract line %+v: %v", trace, c, err)
		}
	}
}

func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, w := range []string{"lookup-gens", "serve-read"} {
		t.Run(w, func(t *testing.T) {
			res := smallRun(t, w, false, true)
			if res.Incorrect == 0 || res.Failed == 0 {
				t.Fatalf("a planted wrong expected answer went unnoticed: %d incorrect, %d failed", res.Incorrect, res.Failed)
			}
			c := &report{Workloads: map[string]*summary{w: {runs: []*runResult{res}}}}
			c.Workloads[w].finish()
			if c.contract(w, false).Correct || c.incorrect() == 0 {
				t.Fatal("the contract line reports a run with a wrong answer as correct")
			}
		})
	}
}
