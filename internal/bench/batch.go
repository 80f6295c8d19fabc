package bench

import (
	"fmt"
	"time"

	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kv"
)

// This file is the batched-throughput experiment: scalar Find vs the
// staged FindBatch pipeline, across batch sizes, datasets, and both layer
// modes (R and S). It extends the paper's latency evaluation with the
// serving-side question: how many lookups per second does the index
// sustain when queries arrive in batches rather than one at a time?

// BatchConfig parameterises RunBatch.
type BatchConfig struct {
	// N is keys per dataset (0 = 2M).
	N int
	// Queries per measurement (0 = 1<<17).
	Queries int
	// Reps per measurement; best-of is reported (0 = 2).
	Reps int
	// Seed for datasets and workloads.
	Seed int64
	// BatchSizes to sweep (nil = 16, 64, 256, 1024, 4096).
	BatchSizes []int
	// Specs to run (nil = uden64, logn64, face64, osmc64).
	Specs []dataset.Spec
}

// BatchPoint is one (dataset, mode, batch size) measurement. Nanoseconds
// are per lookup.
type BatchPoint struct {
	Dataset   string
	Mode      string
	BatchSize int

	ScalarNs     float64 // scalar Find baseline on the same workload
	BatchNs      float64 // FindBatch at this batch size
	SpeedupBatch float64 // ScalarNs / BatchNs
}

// RunBatch measures the batched-vs-scalar throughput sweep.
func RunBatch(cfg BatchConfig) ([]BatchPoint, error) {
	if cfg.N == 0 {
		cfg.N = 2_000_000
	}
	if cfg.Queries == 0 {
		cfg.Queries = 1 << 17
	}
	if cfg.Reps == 0 {
		cfg.Reps = 2
	}
	if cfg.BatchSizes == nil {
		cfg.BatchSizes = []int{16, 64, 256, 1024, 4096}
	}
	if cfg.Specs == nil {
		cfg.Specs = []dataset.Spec{
			{Name: dataset.UDen, Bits: 64},
			{Name: dataset.LogN, Bits: 64},
			{Name: dataset.Face, Bits: 64},
			{Name: dataset.Osmc, Bits: 64},
		}
	}
	var out []BatchPoint
	for _, spec := range cfg.Specs {
		keys64, err := dataset.Generate(spec.Name, spec.Bits, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var pts []BatchPoint
		if spec.Bits == 32 {
			pts, err = batchRow(dataset.U32(keys64), spec.String(), cfg)
		} else {
			pts, err = batchRow(keys64, spec.String(), cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", spec, err)
		}
		out = append(out, pts...)
	}
	return out, nil
}

func batchRow[K kv.Key](keys []K, ds string, cfg BatchConfig) ([]BatchPoint, error) {
	w := NewWorkload(keys, cfg.Queries, cfg.Seed+1)
	model := cdfmodel.NewInterpolation(keys)
	var out []BatchPoint
	for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
		tab, err := core.Build(keys, model, core.Config{Mode: mode})
		if err != nil {
			return nil, err
		}
		scalarNs, err := w.Measure(tab.Find, cfg.Reps)
		if err != nil {
			return nil, err
		}
		for _, bs := range cfg.BatchSizes {
			batchNs, err := w.MeasureBatch(tab.FindBatch, bs, cfg.Reps)
			if err != nil {
				return nil, err
			}
			out = append(out, BatchPoint{
				Dataset:      ds,
				Mode:         mode.String(),
				BatchSize:    bs,
				ScalarNs:     scalarNs,
				BatchNs:      batchNs,
				SpeedupBatch: scalarNs / batchNs,
			})
		}
	}
	return out, nil
}

// MeasureBatch times a batched lower-bound function over the workload,
// feeding it the query stream in slices of batchSize, and returns
// nanoseconds per lookup. Every result is validated against the reference
// ranks first, so a benchmark can never silently measure a broken batch
// path.
func (w *Workload[K]) MeasureBatch(findBatch func(qs []K, out []int) []int, batchSize, reps int) (nsPerOp float64, err error) {
	if batchSize < 1 {
		return 0, fmt.Errorf("bench: invalid batch size %d", batchSize)
	}
	if reps < 1 {
		reps = 1
	}
	out := make([]int, batchSize)
	// Validation + warmup pass.
	for base := 0; base < len(w.Queries); base += batchSize {
		end := base + batchSize
		if end > len(w.Queries) {
			end = len(w.Queries)
		}
		res := findBatch(w.Queries[base:end], out[:end-base])
		for i, r := range res {
			if r != int(w.Expect[base+i]) {
				return 0, fmt.Errorf("bench: wrong batch result for query %v: got %d, want %d",
					w.Queries[base+i], r, w.Expect[base+i])
			}
		}
	}
	var sink int
	best := 1e300
	for r := 0; r < reps; r++ {
		start := time.Now()
		for base := 0; base < len(w.Queries); base += batchSize {
			end := base + batchSize
			if end > len(w.Queries) {
				end = len(w.Queries)
			}
			res := findBatch(w.Queries[base:end], out[:end-base])
			sink += res[len(res)-1]
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		if perOp := elapsed / float64(len(w.Queries)); perOp < best {
			best = perOp
		}
	}
	if sink == -1 {
		panic("unreachable; defeats dead-code elimination")
	}
	return best, nil
}
