// Ablation benchmarks for the design choices called out in DESIGN.md §4:
// the linear-to-binary local-search threshold (Alg. 1), the drift entry
// packing (§3.9), range vs midpoint windows (§3.4), the monotone-model fast
// path vs the validate-and-fallback path (§3.8), and the sampled build
// (§3.4).
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/search"
)

// BenchmarkAblationWindowThreshold justifies Alg. 1's linear-to-binary
// switch (8 keys in the paper, §3.8): linear vs binary bounded search over
// window sizes bracketing the threshold. The switch governs scalar Find
// only; the batch probe searches every window width branch-free in
// lockstep (DESIGN.md §5).
func BenchmarkAblationWindowThreshold(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.USpr, Bits: 64})
	w := bench100kWindows(keys)
	for _, size := range []int{2, 4, 8, 16, 32, 64} {
		size := size
		b.Run(fmt.Sprintf("linear/w=%d", size), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				p := w[i%len(w)]
				end := kv.Clamp(p+size, 0, len(keys))
				sink += search.LinearRange(keys, p, end, keys[kv.Clamp(p+size/2, 0, len(keys)-1)])
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("binary/w=%d", size), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				p := w[i%len(w)]
				end := kv.Clamp(p+size, 0, len(keys))
				sink += search.BinaryRange(keys, p, end, keys[kv.Clamp(p+size/2, 0, len(keys)-1)])
			}
			_ = sink
		})
	}
}

func bench100kWindows(keys []uint64) []int {
	w := make([]int, 1<<15)
	x := uint64(88172645463325252)
	for i := range w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w[i] = int(x % uint64(len(keys)))
	}
	return w
}

// BenchmarkAblationRangeVsMidpoint compares the two layer flavours (§3.4):
// R (bounded window, binary/linear search) vs S (midpoint, exponential).
func BenchmarkAblationRangeVsMidpoint(b *testing.B) {
	for _, specName := range []dataset.Name{dataset.Face, dataset.Osmc} {
		keys := keysFor(b, dataset.Spec{Name: specName, Bits: 64})
		model := cdfmodel.NewInterpolation(keys)
		for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
			tab, err := core.Build(keys, model, core.Config{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s64/%v", specName, mode), func(b *testing.B) {
				b.ReportMetric(float64(tab.SizeBytes()), "layerbytes")
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += tab.Find(keys[(i*2654435761)%len(keys)])
				}
				_ = sink
			})
		}
	}
}

// BenchmarkAblationMonotoneFallback measures the cost of the §3.8
// validate-and-fallback path by wrapping the same monotone model in a
// wrapper that denies monotonicity.
func BenchmarkAblationMonotoneFallback(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.Face, Bits: 64})
	model := cdfmodel.NewInterpolation(keys)
	for _, claim := range []bool{true, false} {
		var m cdfmodel.Model[uint64] = model
		if !claim {
			m = denyMonotone{model}
		}
		tab, err := core.Build(keys, m, core.Config{Mode: core.ModeRange})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("monotone=%v", claim), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += tab.Find(keys[(i*2654435761)%len(keys)])
			}
			_ = sink
		})
	}
}

type denyMonotone struct{ cdfmodel.Model[uint64] }

func (denyMonotone) Monotone() bool { return false }

// BenchmarkAblationSampledBuild measures the §3.4 sampled midpoint build:
// build time and residual error as the sample stride grows.
func BenchmarkAblationSampledBuild(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.Amzn, Bits: 64})
	model := cdfmodel.NewInterpolation(keys)
	for _, stride := range []int{1, 8, 64, 512} {
		stride := stride
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			var tab *core.Table[uint64]
			var err error
			for i := 0; i < b.N; i++ {
				tab, err = core.Build(keys, model, core.Config{Mode: core.ModeMidpoint, SampleStride: stride})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tab.MeasuredError(), "residual-err")
		})
	}
}

// BenchmarkAblationEntryWidth reports the drift entry width the packer
// picks per dataset (§3.9) and the lookup cost at that width.
func BenchmarkAblationEntryWidth(b *testing.B) {
	for _, name := range []dataset.Name{dataset.UDen, dataset.Face, dataset.LogN} {
		keys := keysFor(b, dataset.Spec{Name: name, Bits: 64})
		tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{Mode: core.ModeRange})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s64", name), func(b *testing.B) {
			b.ReportMetric(float64(tab.EntryBits()), "entrybits")
			b.ReportMetric(float64(tab.SizeBytes()), "layerbytes")
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += tab.Find(keys[(i*2654435761)%len(keys)])
			}
			_ = sink
		})
	}
}

// BenchmarkWorkloadSkew compares uniform and Zipf query workloads over the
// same IM+Shift-Table index: skewed queries hit few partitions, so the
// layer's entries and windows become cache-resident and latency drops —
// an effect outside the paper's uniform-workload cost model (Eq. 8).
func BenchmarkWorkloadSkew(b *testing.B) {
	keys := keysFor(b, dataset.Spec{Name: dataset.Face, Bits: 64})
	tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	workloads := map[string]*bench.Workload[uint64]{
		"uniform":  bench.NewWorkload(keys, 1<<15, 7),
		"zipf-1.2": bench.NewZipfWorkload(keys, 1<<15, 1.2, 7),
		"zipf-2.0": bench.NewZipfWorkload(keys, 1<<15, 2.0, 7),
	}
	for name, w := range workloads {
		w := w
		b.Run(name, func(b *testing.B) {
			mask := len(w.Queries) - 1
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += tab.Find(w.Queries[i&mask])
			}
			_ = sink
		})
	}
}
