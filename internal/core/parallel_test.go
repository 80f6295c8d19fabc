package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/dataset"
	"repro/internal/kv"
)

// buildCorpora64 are the key multisets the build pipeline is property-
// tested on: duplicate-heavy (shard cuts must respect §3.2 run starts),
// drifted and skewed real-world-like, dense uniform, empty, tiny. Sizes
// stay above parallelBuildMin so the sharded path actually runs.
func buildCorpora64() map[string][]uint64 {
	rng := rand.New(rand.NewSource(11))
	dupHeavy := make([]uint64, 0, 30_000)
	for v := uint64(100); len(dupHeavy) < 30_000; v += uint64(rng.Intn(50) + 1) {
		run := 1 + rng.Intn(200) // long duplicate runs
		for j := 0; j < run && len(dupHeavy) < 30_000; j++ {
			dupHeavy = append(dupHeavy, v)
		}
	}
	return map[string][]uint64{
		"empty":        nil,
		"tiny":         {1, 2, 3},
		"dup-heavy":    dupHeavy,
		"wiki-dups":    dataset.MustGenerate(dataset.Wiki, 64, 30_000, 5),
		"drifted-face": dataset.MustGenerate(dataset.Face, 64, 30_000, 5),
		"drifted-osmc": dataset.MustGenerate(dataset.Osmc, 64, 20_000, 6),
		"skewed-logn":  dataset.MustGenerate(dataset.LogN, 64, 30_000, 5),
		"uniform":      dataset.MustGenerate(dataset.UDen, 64, 30_000, 5),
	}
}

// diffLayer reports the first difference between two built tables —
// widths, drifts and counts must all be bit-identical — or "" when they
// match.
func diffLayer[K kv.Key](a, b *Table[K]) string {
	if a.m != b.m || a.n != b.n || a.mode != b.mode {
		return fmt.Sprintf("shape: m=%d/%d n=%d/%d mode=%v/%v", a.m, b.m, a.n, b.n, a.mode, b.mode)
	}
	if a.drift.width != b.drift.width || a.loBits != b.loBits || a.hiBits != b.hiBits {
		return fmt.Sprintf("widths: entry=%d/%d lo=%d/%d hi=%d/%d",
			a.drift.width, b.drift.width, a.loBits, b.loBits, a.hiBits, b.hiBits)
	}
	for k := 0; k < a.m; k++ {
		if a.count[k] != b.count[k] {
			return fmt.Sprintf("count[%d]: %d/%d", k, a.count[k], b.count[k])
		}
		switch a.mode {
		case ModeRange:
			alo, ahi := a.drift.pair(k)
			blo, bhi := b.drift.pair(k)
			if alo != blo || ahi != bhi {
				return fmt.Sprintf("pair[%d]: <%d,%d>/<%d,%d>", k, alo, ahi, blo, bhi)
			}
		default:
			if a.drift.get(k) != b.drift.get(k) {
				return fmt.Sprintf("shift[%d]: %d/%d", k, a.drift.get(k), b.drift.get(k))
			}
		}
	}
	return ""
}

// TestParallelBuildIdenticalToSerial checks bit-identical layers from the
// build at one worker and at several (the arena-sharded accumulate) across
// corpora, modes, layer sizes and worker counts — including the fused pair
// widths.
func TestParallelBuildIdenticalToSerial(t *testing.T) {
	for name, keys := range buildCorpora64() {
		model := cdfmodel.NewInterpolation(keys)
		for _, cfg := range []Config{
			{Mode: ModeRange},
			{Mode: ModeMidpoint},
			{Mode: ModeRange, M: 999},
			{Mode: ModeMidpoint, M: 37},
		} {
			if cfg.M > len(keys) && len(keys) > 0 {
				continue
			}
			serial, err := buildPipeline(keys, model, cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 7, 16} {
				par, err := buildPipeline(keys, model, cfg, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffLayer(serial, par); d != "" {
					t.Fatalf("%s cfg=%v/%d workers=%d: differs from 1 worker: %s",
						name, cfg.Mode, cfg.M, workers, d)
				}
			}
		}
	}
}

// TestParallelBuild32Bit runs the bit-identity property over 32-bit keys
// (narrower key type, same pipeline).
func TestParallelBuild32Bit(t *testing.T) {
	for _, name := range []dataset.Name{dataset.LogN, dataset.Amzn, dataset.USpr} {
		keys := dataset.U32(dataset.MustGenerate(name, 32, 20_000, 9))
		model := cdfmodel.NewInterpolation(keys)
		for _, mode := range []Mode{ModeRange, ModeMidpoint} {
			serial, err := buildPipeline(keys, model, Config{Mode: mode}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			par, err := buildPipeline(keys, model, Config{Mode: mode}, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffLayer(serial, par); d != "" {
				t.Fatalf("%s/%v: %s", name, mode, d)
			}
		}
	}
}

// TestParallelBuildNonMonotone pins the non-monotone path (§3.8): the
// prediction stage stays parallel, accumulation falls back to one
// goroutine, and the result is bit-identical to the one-worker build.
func TestParallelBuildNonMonotone(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 20_000, 4)
	model := cdfmodel.NewCubic(keys)
	if model.Monotone() {
		t.Fatal("cubic model should be non-monotone")
	}
	serial, err := buildPipeline(keys, model, Config{Mode: ModeRange}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := buildPipeline(keys, model, Config{Mode: ModeRange}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffLayer(serial, par); d != "" {
		t.Fatalf("non-monotone parallel differs: %s", d)
	}
}

// lyingModel declares Monotone but predicts in reverse order — the sharded
// accumulate would race on partitions if the pipeline trusted it.
type lyingModel struct {
	inner *cdfmodel.Interpolation[uint64]
	n     int
}

func (m *lyingModel) Predict(k uint64) int { return m.n - 1 - m.inner.Predict(k) }
func (m *lyingModel) Monotone() bool       { return true }
func (m *lyingModel) SizeBytes() int       { return m.inner.SizeBytes() }
func (m *lyingModel) Name() string         { return "lying" }

// TestParallelBuildDetectsNonMonotonePredictions: a model mis-declaring
// Monotone must degrade to the one-goroutine accumulate, not race — and
// still produce the one-worker build's exact table.
func TestParallelBuildDetectsNonMonotonePredictions(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 20_000, 8)
	model := &lyingModel{inner: cdfmodel.NewInterpolation(keys), n: len(keys)}
	serial, err := buildPipeline(keys, model, Config{Mode: ModeRange}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := buildPipeline(keys, model, Config{Mode: ModeRange}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffLayer(serial, par); d != "" {
		t.Fatalf("lying-monotone parallel differs: %s", d)
	}
}

// TestFusedSplitRoundTrip: the fused layout records, for each drift
// half, the narrowest width that holds it, and packs the pairs at the
// wider of the two — the widths word of the layer blob, which a
// conversion to or from the split arrays of v1 blobs (internal/migrate)
// relies on to lose nothing.
func TestFusedSplitRoundTrip(t *testing.T) {
	for name, keys := range buildCorpora64() {
		tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{Mode: ModeRange})
		if err != nil {
			t.Fatal(err)
		}
		if tab.n == 0 {
			continue
		}
		var maxLo, maxHi int64
		for k := 0; k < tab.m; k++ {
			lo, hi := tab.drift.pair(k)
			maxLo = max(maxLo, int64(lo), -int64(lo))
			maxHi = max(maxHi, int64(hi), -int64(hi))
		}
		if wl, wh := driftWidth(maxLo), driftWidth(maxHi); wl != tab.loBits || wh != tab.hiBits {
			t.Fatalf("%s: split widths %d/%d, the halves need %d/%d", name, tab.loBits, tab.hiBits, wl, wh)
		}
		if w := max(tab.loBits, tab.hiBits); tab.drift.width != w {
			t.Fatalf("%s: fused width %d, want %d", name, tab.drift.width, w)
		}
	}
}

func TestParallelBuildFallbacks(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 10_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	// Sampled midpoint builds take one worker but must still work.
	sampled := Config{Mode: ModeMidpoint, SampleStride: 8}
	tab, err := buildPipeline(keys, model, sampled, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := buildPipeline(keys, model, sampled, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffLayer(one, tab); d != "" {
		t.Fatalf("sampled build at 4 workers differs from 1: %s", d)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		q := keys[rng.Intn(len(keys))]
		if tab.Find(q) != Build0(keys, model).Find(q) {
			t.Fatal("sampled parallel fallback broken")
		}
	}
	// Pass 1 sees a subset of the keys; ComputeStats still covers them all.
	if got := tab.ComputeStats(); got.N != len(keys) {
		t.Errorf("sampled stats N = %d, want %d", got.N, len(keys))
	}
	// Errors still surface through the shared validation.
	if _, err := buildPipeline([]uint64{3, 1, 2}, model, Config{}, 4, nil); err == nil {
		t.Error("unsorted keys must error")
	}
}

// Build0 is a test helper building with defaults, panicking on error.
func Build0(keys []uint64, model cdfmodel.Model[uint64]) *Table[uint64] {
	tab, err := Build(keys, model, Config{})
	if err != nil {
		panic(err)
	}
	return tab
}

func TestParallelBuildSmallInput(t *testing.T) {
	keys := []uint64{1, 2, 3}
	tab, err := buildPipeline(keys, cdfmodel.NewInterpolation(keys), Config{}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for q := uint64(0); q < 5; q++ {
		want := 0
		for want < len(keys) && keys[want] < q {
			want++
		}
		if got := tab.Find(q); got != want {
			t.Fatalf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

// TestParallelBuildServesBatch pins the scratch-pool initialisation of the
// multi-worker build: its table must run the batched query engine (which
// draws from Table.scratch) without a nil pool.
func TestParallelBuildServesBatch(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 10_000, 3)
	model := cdfmodel.NewInterpolation(keys)
	table, err := buildPipeline(keys, model, Config{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	qs := make([]uint64, 600)
	for i := range qs {
		qs[i] = keys[rng.Intn(len(keys))] + uint64(rng.Intn(3))
	}
	out := table.FindBatch(qs, nil)
	for i, q := range qs {
		if want := table.Find(q); out[i] != want {
			t.Fatalf("FindBatch[%d] = %d, want %d", i, out[i], want)
		}
	}
}

// TestBuildNextReusesPools: a rebuild chain must share one batch-scratch
// pool and one build-arena pool end to end, and every link must be
// bit-identical to a from-scratch build over the same keys.
func TestBuildNextReusesPools(t *testing.T) {
	keys := dataset.MustGenerate(dataset.LogN, 64, 20_000, 7)
	model := cdfmodel.NewInterpolation(keys)
	first, err := Build(keys, model, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	cur := first
	for gen := 0; gen < 4; gen++ {
		// Simulate compaction: grow the key set, rebuild from the
		// predecessor.
		grown := append(append([]uint64{}, cur.keys...), cur.keys[len(cur.keys)-1]+uint64(gen)+1)
		m := cdfmodel.NewInterpolation(grown)
		next, err := cur.BuildNext(grown, m, Config{Mode: ModeRange}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if next.scratch != first.scratch || next.buildPool != first.buildPool {
			t.Fatalf("gen %d: pools not adopted across BuildNext", gen)
		}
		fresh, err := Build(grown, m, Config{Mode: ModeRange})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffLayer(fresh, next); d != "" {
			t.Fatalf("gen %d: BuildNext differs from fresh build: %s", gen, d)
		}
		cur = next
	}
	// A nil receiver is a fresh build.
	var nilTab *Table[uint64]
	tab, err := nilTab.BuildNext(keys, model, Config{}, 2)
	if err != nil || tab == nil {
		t.Fatalf("nil BuildNext: %v", err)
	}
	if tab.Find(keys[10]) != Build0(keys, model).Find(keys[10]) {
		t.Fatal("nil BuildNext table broken")
	}
}
