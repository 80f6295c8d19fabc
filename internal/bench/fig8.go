package bench

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/memsim"
	"repro/internal/radixspline"
	"repro/internal/rbs"
	"repro/internal/rmi"
	"repro/internal/search"
)

// Fig8Point is one (index size, metrics) point of the paper's Fig. 8.
type Fig8Point struct {
	Method    string
	SizeBytes int
	LookupNs  float64
	Log2Err   float64 // -1 when not meaningful
	Accesses  float64 // memory touches per lookup (instruction-count proxy)
	L1Misses  float64
	LLCMisses float64
}

// Fig8Config controls the index-size sweep.
type Fig8Config struct {
	Dataset dataset.Spec // face64 or osmc64 in the paper
	N       int
	Queries int
	Reps    int
	Seed    int64
}

func (c *Fig8Config) defaults() {
	if c.Dataset.Name == "" {
		c.Dataset = dataset.Spec{Name: dataset.Face, Bits: 64}
	}
	if c.N == 0 {
		c.N = 2_000_000
	}
	if c.Queries == 0 {
		c.Queries = 50_000
	}
	if c.Reps == 0 {
		c.Reps = 2
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
}

// RunFig8 sweeps each tunable index's size knob over one dataset and
// reports lookup latency, log2 error, memory accesses, and simulated
// L1/LLC misses per point (the five panels of Fig. 8).
func RunFig8(cfg Fig8Config) ([]Fig8Point, error) {
	cfg.defaults()
	if cfg.Dataset.Bits != 64 {
		return nil, fmt.Errorf("bench: Fig 8 uses 64-bit datasets")
	}
	keys, err := dataset.Generate(cfg.Dataset.Name, 64, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := NewWorkload(keys, cfg.Queries, cfg.Seed+1)
	n := len(keys)
	var out []Fig8Point

	add := func(method string, size int, log2err float64, find func(uint64) int, trace func(uint64, search.Touch) int) error {
		ns, err := w.Measure(find, cfg.Reps)
		if err != nil {
			return fmt.Errorf("%s: %w", method, err)
		}
		p := Fig8Point{Method: method, SizeBytes: size, LookupNs: ns, Log2Err: log2err}
		if trace != nil {
			p.Accesses, p.L1Misses, p.LLCMisses = simProfile(w, trace)
		}
		out = append(out, p)
		return nil
	}

	// RadixSpline: corridor width drives spline size.
	for _, eps := range []int{4, 16, 64, 256, 1024} {
		idx, err := radixspline.New(keys, radixspline.Config{MaxError: eps})
		if err != nil {
			return nil, err
		}
		if err := add("RS", idx.SizeBytes(), log2f(2*eps+1), idx.Find, idx.TraceFind); err != nil {
			return nil, err
		}
	}
	// RMI: leaf count drives model size.
	for _, leaves := range []int{n / 16384, n / 1024, n / 64, n / 16} {
		if leaves < 1 {
			continue
		}
		idx, err := rmi.New(keys, rmi.Config{Leaves: leaves})
		if err != nil {
			return nil, err
		}
		if err := add("RMI", idx.SizeBytes(), idx.Log2Error(), idx.Find, idx.TraceFind); err != nil {
			return nil, err
		}
	}
	// B+tree: fanout drives node count.
	for _, fanout := range []int{4, 16, 64, 256} {
		tr, err := btree.NewBulk(keys, nil, fanout)
		if err != nil {
			return nil, err
		}
		if err := add("B+tree", tr.SizeBytes(), -1, tr.Find, tr.TraceFind); err != nil {
			return nil, err
		}
	}
	// RBS: radix bits drive the table size.
	for _, bits := range []int{8, 12, 16, 20, 24} {
		idx, err := rbs.New(keys, bits)
		if err != nil {
			return nil, err
		}
		if err := add("RBS", idx.SizeBytes(), -1, idx.Find, idx.TraceFind); err != nil {
			return nil, err
		}
	}
	// IM+Shift-Table: the layer size M drives the footprint (§3.4).
	model := cdfmodel.NewInterpolation(keys)
	for _, m := range []int{n / 1000, n / 100, n / 10, n} {
		if m < 1 {
			continue
		}
		tab, err := core.Build(keys, model, core.Config{Mode: core.ModeRange, M: m})
		if err != nil {
			return nil, err
		}
		if err := add("IM+ST", tab.SizeBytes(), tab.Log2Error(), tab.Find, tab.TraceFind); err != nil {
			return nil, err
		}
	}
	// RS+Shift-Table: a loose spline corrected by a full layer.
	for _, eps := range []int{64, 256, 1024} {
		rsm, err := radixspline.New(keys, radixspline.Config{MaxError: eps})
		if err != nil {
			return nil, err
		}
		tab, err := core.Build[uint64](keys, rsm, core.Config{Mode: core.ModeRange})
		if err != nil {
			return nil, err
		}
		if err := add("RS+ST", tab.SizeBytes()+rsm.SizeBytes(), tab.Log2Error(), tab.Find, tab.TraceFind); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simProfile replays a traced lookup over the workload through the cache
// simulator, returning accesses, L1 misses and LLC misses per lookup.
func simProfile[K interface{ ~uint32 | ~uint64 }](w *Workload[K], trace func(K, search.Touch) int) (accesses, l1, llc float64) {
	sim, err := memsim.New(memsim.Skylake())
	if err != nil {
		panic(err)
	}
	touch := func(addr uint64, width int) { sim.Access(addr, width) }
	half := len(w.Queries) / 2
	if half > 5000 {
		half = 5000
	}
	for i := 0; i < half; i++ {
		trace(w.Queries[i], touch)
	}
	sim.ResetStats()
	count := 0
	for i := half; i < len(w.Queries) && count < 5000; i++ {
		trace(w.Queries[i], touch)
		count++
	}
	st := sim.Stats()
	u := int64(count)
	if u == 0 {
		return 0, 0, 0
	}
	return float64(st.Accesses) / float64(u), st.MissesPer("L1", u), st.MissesPer("L3", u)
}

func log2f(v int) float64 {
	if v <= 1 {
		return 0
	}
	f := 0.0
	for x := 1; x < v; x *= 2 {
		f++
	}
	return f
}
