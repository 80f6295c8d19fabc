package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/mapped"
	"repro/internal/memsim"
	"repro/internal/router"
)

// This file is the mapped-snapshot experiment (DESIGN.md §12): how fast
// does a restart get back to serving when the snapshot is mapped in
// place instead of streamed onto the heap, what does the first touch of
// a cold shard cost, and what does a residency budget trade away. Every
// mapped index is probe-verified against its cold-built twin before any
// number is reported.

// MmapConfig parameterises RunMmap.
type MmapConfig struct {
	// N is keys for the load comparison (0 = 10M, the EXPERIMENTS.md
	// scale; CI smokes run much smaller).
	N int
	// Queries is the probe/workload size (0 = 50k).
	Queries int
	// Seed for datasets and probes.
	Seed int64
	// Dir is where snapshot files land ("" = fresh temp dir, removed
	// afterwards).
	Dir string
}

// MmapLoadPoint is the three-way restart comparison for one backend.
type MmapLoadPoint struct {
	Backend     string  `json:"backend"`
	ColdBuildMs float64 `json:"cold_build_ms"`
	HeapLoadMs  float64 `json:"heap_load_ms"` // streaming load, best of mapReps
	MapLoadMs   float64 `json:"map_load_ms"`  // mapped open of the same file, best of mapReps
	FileMBv2    float64 `json:"file_mb_v2"`
	MapVsHeap   float64 `json:"map_vs_heap"` // HeapLoadMs / MapLoadMs
	MapVsCold   float64 `json:"map_vs_cold"` // ColdBuildMs / MapLoadMs
}

// MmapTouchPoint measures cold-shard first-touch cost on a mapped
// router: the first pass over the workload faults every queried shard's
// pages in; the second pass runs warm.
type MmapTouchPoint struct {
	Shards          int     `json:"shards"`
	FirstPassNs     float64 `json:"first_pass_ns_per_query"`
	SecondPassNs    float64 `json:"second_pass_ns_per_query"`
	PredictedColdNs float64 `json:"predicted_cold_ns"` // memsim.ColdQueryNs
	MinorFaults     int64   `json:"minor_faults"`      // over the first pass (linux)
}

// MmapBudgetPoint is one rung of the residency-budget sweep.
type MmapBudgetPoint struct {
	BudgetFrac    float64 `json:"budget_frac"`
	BudgetBytes   int64   `json:"budget_bytes"`
	ResidentSpans int     `json:"resident_spans"`
	ColdSpans     int     `json:"cold_spans"`
	ColdTouches   int64   `json:"cold_touches"`
	NsPerQuery    float64 `json:"ns_per_query"`
}

// MmapResult is the full experiment.
type MmapResult struct {
	N            int               `json:"n"`
	MapSupported bool              `json:"map_supported"`
	Loads        []MmapLoadPoint   `json:"loads"`
	Touch        MmapTouchPoint    `json:"touch"`
	Budget       []MmapBudgetPoint `json:"budget"`
}

// RunMmap measures mapped vs streamed vs cold restart for the IM+ST
// table and the hybrid router, then the residency tiers on the mapped
// router.
func RunMmap(cfg MmapConfig) (*MmapResult, error) {
	if cfg.N == 0 {
		cfg.N = 10_000_000
	}
	if cfg.Queries == 0 {
		cfg.Queries = 50_000
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "mmap-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	res := &MmapResult{N: cfg.N, MapSupported: mapped.Supported()}

	keys, err := dataset.Generate(dataset.Face, 64, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	qs := probes(keys, cfg.Queries, cfg.Seed+1)
	pt, err := mmapLoadPoint("IM+ST", keys, qs, dir)
	if err != nil {
		return nil, err
	}
	res.Loads = append(res.Loads, pt)

	pw := dataset.Piecewise(cfg.N, cfg.Seed)
	pqs := probes(pw, cfg.Queries, cfg.Seed+2)
	pt, err = mmapLoadPoint("router", pw, pqs, dir)
	if err != nil {
		return nil, err
	}
	res.Loads = append(res.Loads, pt)

	// Cold-shard first touch and the budget sweep run on a mapped
	// router over the piecewise key space (distinct shards to fault in).
	if err := mmapRouterTiers(res, pw, pqs, dir); err != nil {
		return nil, err
	}
	return res, nil
}

// mmapLoadPoint builds one backend cold, persists it once, and times the
// three restart paths: cold build, streaming load and mapped open of
// that file.
func mmapLoadPoint(name string, keys, qs []uint64, dir string) (MmapLoadPoint, error) {
	start := time.Now()
	var cold index.Index[uint64]
	var err error
	if name == "router" {
		cold, err = router.New(keys, router.Config{})
	} else {
		cold, err = index.Build(name, keys)
	}
	if err != nil {
		return MmapLoadPoint{}, err
	}
	coldMs := msSince(start)

	p2 := filepath.Join(dir, name+".v2.snap")
	if err := index.SaveFile[uint64](p2, cold); err != nil {
		return MmapLoadPoint{}, err
	}

	var heap index.Index[uint64]
	heapMs, err := bestOf(mapReps, func() error {
		var herr error
		heap, herr = index.LoadFile[uint64](p2)
		return herr
	})
	if err != nil {
		return MmapLoadPoint{}, err
	}
	var mm index.Index[uint64]
	mapMs, err := bestOf(mapReps, func() error {
		var merr error
		var viaMap bool
		mm, viaMap, merr = index.LoadFileMapped[uint64](p2)
		if merr == nil && !viaMap {
			return fmt.Errorf("bench: v2 snapshot %s did not open mapped", p2)
		}
		return merr
	})
	if err != nil {
		return MmapLoadPoint{}, err
	}
	for _, q := range qs {
		w := cold.Find(q)
		if g := heap.Find(q); g != w {
			return MmapLoadPoint{}, fmt.Errorf("bench: %s heap Find(%d) = %d, cold %d", name, q, g, w)
		}
		if g := mm.Find(q); g != w {
			return MmapLoadPoint{}, fmt.Errorf("bench: %s mapped Find(%d) = %d, cold %d", name, q, g, w)
		}
	}
	s2, err := os.Stat(p2)
	if err != nil {
		return MmapLoadPoint{}, err
	}
	return MmapLoadPoint{
		Backend:     name,
		ColdBuildMs: coldMs,
		HeapLoadMs:  heapMs,
		MapLoadMs:   mapMs,
		FileMBv2:    float64(s2.Size()) / (1 << 20),
		MapVsHeap:   heapMs / mapMs,
		MapVsCold:   coldMs / mapMs,
	}, nil
}

// residencyRouter is the mapped-router capability surface the tier
// measurements need (the registry loader returns index.Index).
type residencyRouter interface {
	SetResidency(budget int64) (*mapped.Residency, error)
	MappedBytes() int64
	FindBatch(qs []uint64, out []int) []int
}

func mmapRouterTiers(res *MmapResult, keys, qs []uint64, dir string) error {
	p2 := filepath.Join(dir, "router.v2.snap")

	// First touch: a freshly mapped router has no page resident. The
	// first workload pass pays the faults; the second runs warm.
	ix, viaMap, err := index.LoadFileMapped[uint64](p2)
	if err != nil {
		return err
	}
	if !viaMap {
		return fmt.Errorf("bench: v2 snapshot %s did not open mapped", p2)
	}
	rt, ok := ix.(residencyRouter)
	if !ok {
		return fmt.Errorf("bench: mapped router is %T, want residency support", ix)
	}
	out := make([]int, len(qs))
	mf0, _ := mapped.OSFaults()
	start := time.Now()
	rt.FindBatch(qs, out)
	firstNs := float64(time.Since(start).Nanoseconds()) / float64(len(qs))
	mf1, _ := mapped.OSFaults()
	start = time.Now()
	rt.FindBatch(qs, out)
	secondNs := float64(time.Since(start).Nanoseconds()) / float64(len(qs))
	rd, err := rt.SetResidency(rt.MappedBytes())
	if err != nil {
		return err
	}
	res.Touch = MmapTouchPoint{
		Shards:          rd.Spans(),
		FirstPassNs:     firstNs,
		SecondPassNs:    secondNs,
		PredictedColdNs: memsim.ColdQueryNs(),
		MinorFaults:     mf1 - mf0,
	}

	// Budget sweep: each rung installs a fresh manager under a fraction
	// of the mapped bytes, lets one workload pass accrue heat, re-plans
	// so the hot shards are the resident ones, then measures.
	for _, frac := range []float64{0.10, 0.25, 0.50, 1.00} {
		budget := int64(frac * float64(rt.MappedBytes()))
		rd, err := rt.SetResidency(budget)
		if err != nil {
			return err
		}
		rt.FindBatch(qs, out)
		rd.Plan()
		start = time.Now()
		rt.FindBatch(qs, out)
		ns := float64(time.Since(start).Nanoseconds()) / float64(len(qs))
		st := rd.Stats()
		res.Budget = append(res.Budget, MmapBudgetPoint{
			BudgetFrac:    frac,
			BudgetBytes:   budget,
			ResidentSpans: st.ResidentSpans,
			ColdSpans:     st.ColdSpans,
			ColdTouches:   st.ColdTouches,
			NsPerQuery:    ns,
		})
	}
	return nil
}

// WriteJSON emits the experiment in the BENCH_mmap.json shape the CI
// smoke reads.
func (r *MmapResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MmapLoadGrid renders the restart comparison.
func MmapLoadGrid(pts []MmapLoadPoint) *Grid {
	g := NewGrid("backend", "cold_build_ms", "heap_load_ms", "map_load_ms", "file_mb_v2", "map_vs_heap", "map_vs_cold")
	verbs := []string{"%s", "%.1f", "%.1f", "%.3f", "%.2f", "%.1f", "%.1f"}
	for _, p := range pts {
		g.Rowf(verbs, p.Backend, p.ColdBuildMs, p.HeapLoadMs, p.MapLoadMs, p.FileMBv2, p.MapVsHeap, p.MapVsCold)
	}
	return g
}

// MmapBudgetGrid renders the residency-budget sweep.
func MmapBudgetGrid(pts []MmapBudgetPoint) *Grid {
	g := NewGrid("budget_frac", "budget_bytes", "resident_spans", "cold_spans", "cold_touches", "ns_per_query")
	verbs := []string{"%.2f", "%d", "%d", "%d", "%d", "%.1f"}
	for _, p := range pts {
		g.Rowf(verbs, p.BudgetFrac, p.BudgetBytes, p.ResidentSpans, p.ColdSpans, p.ColdTouches, p.NsPerQuery)
	}
	return g
}
