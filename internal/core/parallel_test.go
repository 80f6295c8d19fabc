package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// widths, drifts and the monotone flag must all be bit-identical — or ""
// when they match.
func diffLayer[K kv.Key](a, b *Table[K]) string {
	if a.monotone != b.monotone {
		return fmt.Sprintf("monotone=%v/%v", a.monotone, b.monotone)
	}
	return diffEntries(a, b)
}

// diffEntries is diffLayer without the monotone flag: the shape, the
// width and every entry.
func diffEntries[K kv.Key](a, b *Table[K]) string {
	if a.m != b.m || a.n != b.n || a.mode != b.mode {
		return fmt.Sprintf("shape: m=%d/%d n=%d/%d mode=%v/%v", a.m, b.m, a.n, b.n, a.mode, b.mode)
	}
	if a.drift.width != b.drift.width || a.drift.len() != b.drift.len() {
		return fmt.Sprintf("drift: width=%d/%d len=%d/%d", a.drift.width, b.drift.width, a.drift.len(), b.drift.len())
	}
	for k := 0; k < a.drift.len(); k++ {
		if a.drift.get(k) != b.drift.get(k) {
			return fmt.Sprintf("entry[%d]: %d/%d", k, a.drift.get(k), b.drift.get(k))
		}
	}
	return ""
}

// accumulated builds keys through the accumulator, the reference the
// stream is held to: Build's validation and shape, then accumulate at one
// goroutine. It clears a range table's monotone flag, which callers
// comparing an honest stream therefore leave out (diffEntries).
func accumulated[K kv.Key](tb testing.TB, keys []K, model cdfmodel.Model[K], cfg Config) *Table[K] {
	tb.Helper()
	ref, err := buildPipeline(keys, model, cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	stride := 1
	if cfg.Mode == ModeMidpoint && cfg.SampleStride > 1 {
		stride = cfg.SampleStride
	}
	if ref.n > 0 {
		if err := ref.accumulate(ref.shards(1), stride); err != nil {
			tb.Fatal(err)
		}
	}
	return ref
}

// storedBounds recomputes by brute force, from the keys and the model,
// what range layers stored before they kept only lower bounds: per
// partition lo[k] = minPos−pmax and hi[k] = endPos−pmin, empty partitions
// backfilled from the next non-empty one (§3.1), and the number of keys
// the model maps to each partition.
func storedBounds[K kv.Key](tab *Table[K]) (lo, hi []int64, cnt []int32) {
	m := tab.m
	minPos, endPos := make([]int64, m), make([]int64, m)
	cnt = make([]int32, m)
	first := 0
	for i, x := range tab.keys {
		if i > 0 && x != tab.keys[i-1] {
			first = i
		}
		k := tab.partitionOf(tab.model.Predict(x))
		if cnt[k] == 0 || int64(first) < minPos[k] {
			minPos[k] = int64(first)
		}
		if cnt[k] == 0 || int64(i) > endPos[k] {
			endPos[k] = int64(i)
		}
		cnt[k]++
	}
	lo, hi = make([]int64, m), make([]int64, m)
	next := int64(tab.n)
	for k := m - 1; k >= 0; k-- {
		pmin, pmax := tab.pmin(k), tab.pmax(k)
		if cnt[k] > 0 {
			lo[k], hi[k], next = minPos[k]-pmax, endPos[k]-pmin, minPos[k]
		} else {
			lo[k], hi[k] = next-pmax, next-1-pmin
		}
	}
	return lo, hi, cnt
}

// TestParallelBuildIdenticalToSerial checks that the stream, at one
// worker and at several, builds the layer the accumulator builds, width
// and every entry, across corpora, monotone models, modes, layer sizes,
// sample strides and worker counts, and keeps the monotone flag.
func TestParallelBuildIdenticalToSerial(t *testing.T) {
	for name, keys := range buildCorpora64() {
		for _, model := range []cdfmodel.Model[uint64]{cdfmodel.NewInterpolation(keys), cdfmodel.NewLinear(keys)} {
			for _, cfg := range []Config{
				{Mode: ModeRange},
				{Mode: ModeMidpoint},
				{Mode: ModeRange, M: 999},
				{Mode: ModeMidpoint, M: 37},
				{Mode: ModeRange, M: 7},
				{Mode: ModeMidpoint, SampleStride: 8},
				{Mode: ModeMidpoint, M: 999, SampleStride: 3},
			} {
				if cfg.M > len(keys) && len(keys) > 0 {
					continue
				}
				ref := accumulated(t, keys, model, cfg)
				for _, workers := range []int{1, 2, 3, 7, 16} {
					par, err := buildPipeline(keys, model, cfg, workers)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffEntries(ref, par); d != "" || !par.monotone {
						t.Fatalf("%s %s cfg=%+v workers=%d: differs from the accumulator: %s (monotone %v)",
							name, model.Name(), cfg, workers, d, par.monotone)
					}
				}
			}
		}
	}
}

// TestParallelBuild32Bit runs the identity property over 32-bit keys
// (narrower key type, same pipeline).
func TestParallelBuild32Bit(t *testing.T) {
	for _, name := range []dataset.Name{dataset.LogN, dataset.Amzn, dataset.USpr} {
		keys := dataset.U32(dataset.MustGenerate(name, 32, 20_000, 9))
		model := cdfmodel.NewInterpolation(keys)
		for _, mode := range []Mode{ModeRange, ModeMidpoint} {
			ref := accumulated(t, keys, model, Config{Mode: mode})
			for _, workers := range []int{1, 5} {
				par, err := buildPipeline(keys, model, Config{Mode: mode}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffEntries(ref, par); d != "" || !par.monotone {
					t.Fatalf("%s/%v workers=%d: %s (monotone %v)", name, mode, workers, d, par.monotone)
				}
			}
		}
	}
}

// TestParallelBuildNonMonotone pins the non-monotone path (§3.8): the
// cubic model's partition ids fall on logn, late in the last shard, so
// the stream gives up and the accumulator builds the table from the
// predictions the stream kept plus the rest, made in parallel. In both
// modes, sampled too, every worker count gives the entries recomputed key
// by key, and a range table clears monotone.
func TestParallelBuildNonMonotone(t *testing.T) {
	keys := dataset.MustGenerate(dataset.LogN, 64, 20_000, 4)
	model := cdfmodel.NewCubic(keys)
	if model.Monotone() {
		t.Fatal("cubic model should be non-monotone")
	}
	probe := &Table[uint64]{keys: keys, model: model, mode: ModeRange, n: len(keys), m: len(keys)}
	if err := probe.stream(probe.shards(2), 1); !errors.Is(err, errFell) {
		t.Fatalf("the stream returned %v, want errFell", err)
	}
	for _, cfg := range []Config{
		{Mode: ModeRange},
		{Mode: ModeRange, M: 999},
		{Mode: ModeMidpoint},
		{Mode: ModeMidpoint, M: 999, SampleStride: 3},
	} {
		stride := max(cfg.SampleStride, 1)
		for _, workers := range []int{1, 2, 8} {
			tab, err := buildPipeline(keys, model, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if tab.monotone {
				t.Fatalf("%+v workers=%d: monotone kept", cfg, workers)
			}
			want := bruteEntries(tab, stride)
			if tab.drift.len() != len(want) {
				t.Fatalf("%+v workers=%d: %d entries, want %d", cfg, workers, tab.drift.len(), len(want))
			}
			for k, v := range want {
				if got := int64(tab.drift.get(k)); got != v {
					t.Fatalf("%+v workers=%d: entry[%d] = %d, want %d", cfg, workers, k, got, v)
				}
			}
		}
	}
}

// bruteEntries recomputes a table's layer entries key by key from its
// keys and model: range mode's lower bounds (storedBounds) closed by
// entry M = 0; midpoint mode's rounded mean drift (Eq. 7) over the keys
// at multiples of stride, an empty partition aiming at the first position
// of the next non-empty one.
func bruteEntries[K kv.Key](tab *Table[K], stride int) []int64 {
	if tab.mode == ModeRange {
		lo, _, _ := storedBounds(tab)
		return append(lo, 0)
	}
	m := tab.m
	sum, cnt, minPos := make([]int64, m), make([]int64, m), make([]int64, m)
	first := 0
	for i, x := range tab.keys {
		if i > 0 && x != tab.keys[i-1] {
			first = i
		}
		if i%stride != 0 {
			continue
		}
		p := tab.model.Predict(x)
		k := tab.partitionOf(p)
		if cnt[k] == 0 {
			minPos[k] = int64(first)
		}
		sum[k] += int64(first - p)
		cnt[k]++
	}
	out := make([]int64, m)
	next := int64(tab.n)
	for k := m - 1; k >= 0; k-- {
		if cnt[k] > 0 {
			out[k], next = roundHalfAway(float64(sum[k])/float64(cnt[k])), minPos[k]
		} else {
			out[k] = next - tab.aim(k)
		}
	}
	return out
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

// swapModel declares Monotone but swaps the predictions of two adjacent
// keys, a lie confined to one pair of partitions.
type swapModel struct {
	inner *cdfmodel.Interpolation[uint64]
	a, b  uint64 // the two keys whose predictions trade places
}

func (m *swapModel) Predict(k uint64) int {
	switch k {
	case m.a:
		return m.inner.Predict(m.b)
	case m.b:
		return m.inner.Predict(m.a)
	}
	return m.inner.Predict(k)
}
func (m *swapModel) Monotone() bool { return true }
func (m *swapModel) SizeBytes() int { return m.inner.SizeBytes() }
func (m *swapModel) Name() string   { return "swap" }

// fallModel declares Monotone and is, except that the keys in [at,
// until) predict by positions off (clamped at 0). With by < 0 and no
// until the predictions fall exactly once, after the stream may already
// have walked part of the keys; with by > 0 they rise past later
// partitions and fall back at until.
type fallModel struct {
	inner     *cdfmodel.Interpolation[uint64]
	at, until uint64
	by        int
}

func (m *fallModel) Predict(k uint64) int {
	p := m.inner.Predict(k)
	if k >= m.at && k < m.until {
		p = max(p+m.by, 0)
	}
	return p
}
func (m *fallModel) Monotone() bool { return true }
func (m *fallModel) SizeBytes() int { return m.inner.SizeBytes() }
func (m *fallModel) Name() string   { return "fall" }

// TestStreamFallsOnce: a mis-declared model whose predictions fall once —
// mid-way through the second of two shards, at the seam where an
// honest model's two shards meet, or after rising, inside the first
// shard, past the partitions the next shard owns — builds the
// accumulator's table at every worker count, in both modes (a range
// table with the monotone flag cleared), and answers every Find and
// FindBatch correctly. Under -race the rise also checks no shard writes
// another's entries.
func TestStreamFallsOnce(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 20_000, 8)
	im := cdfmodel.NewInterpolation(keys)
	honest := &Table[uint64]{keys: keys, model: im, n: len(keys), m: len(keys)}
	seam := honest.shards(2)[1].lo
	qs := make([]uint64, 0, 3*len(keys))
	for _, k := range keys {
		qs = append(qs, k-1, k, k+1)
	}
	bump := seam / 2 // 10 keys here predict 100 past the seam's key
	rise := im.Predict(keys[seam]) + 100 - im.Predict(keys[bump])
	for _, c := range []struct {
		name  string
		model *fallModel
	}{
		{"second shard", &fallModel{inner: im, at: keys[seam+(len(keys)-seam)/2], until: math.MaxUint64, by: -50}},
		{"seam", &fallModel{inner: im, at: keys[seam], until: math.MaxUint64, by: -50}},
		{"rise past the next shard", &fallModel{inner: im, at: keys[bump], until: keys[bump+10], by: rise}},
	} {
		model := c.model
		for _, cfg := range []Config{{Mode: ModeRange}, {Mode: ModeRange, M: len(keys) / 4}, {Mode: ModeMidpoint}} {
			ref := accumulated(t, keys, model, cfg)
			for _, workers := range []int{1, 2, 3} {
				tab, err := buildPipeline(keys, model, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffLayer(ref, tab); d != "" {
					t.Fatalf("%s %+v workers=%d: differs from the accumulator: %s", c.name, cfg, workers, d)
				}
				batch := tab.FindBatch(qs, nil)
				for i, q := range qs {
					want := kv.LowerBound(keys, q)
					if got := tab.Find(q); got != want || batch[i] != want {
						t.Fatalf("%s %+v workers=%d: q=%d Find %d FindBatch %d, want %d", c.name, cfg, workers, q, got, batch[i], want)
					}
				}
			}
		}
	}
}

// TestStreamAllocatesOnlyTheLayer: a range-mode build of 1M face64 keys
// at two workers allocates its packed layer and at most 64 KiB besides —
// no prediction arena, no per-partition arrays.
func TestStreamAllocatesOnlyTheLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("1M keys")
	}
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := buildPipeline(keys, model, Config{Mode: ModeRange}, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(tab.SizeBytes())+64<<10; got > limit {
		t.Fatalf("the build allocated %d bytes, over its %d-byte layer plus 64 KiB", got, tab.SizeBytes())
	}
}

// TestParallelBuildDetectsNonMonotonePredictions: a model mis-declaring
// Monotone must degrade to the one-goroutine accumulate, not race — and
// still produce the one-worker build's exact table, whose coverage check
// clears monotone, so every Find and FindBatch answer, on keys and
// between them, is the true lower bound.
func TestParallelBuildDetectsNonMonotonePredictions(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 20_000, 8)
	model := &lyingModel{inner: cdfmodel.NewInterpolation(keys), n: len(keys)}
	qs := make([]uint64, 0, 3*len(keys)+2)
	for _, k := range keys {
		qs = append(qs, k-1, k, k+1)
	}
	qs = append(qs, 0, ^uint64(0))
	for _, m := range []int{0, len(keys) / 4} {
		cfg := Config{Mode: ModeRange, M: m}
		serial, err := buildPipeline(keys, model, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := buildPipeline(keys, model, cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffLayer(serial, par); d != "" {
			t.Fatalf("M=%d: lying-monotone parallel differs: %s", m, d)
		}
		if par.monotone {
			t.Fatalf("M=%d: the coverage check kept monotone for reversed predictions", m)
		}
		batch := par.FindBatch(qs, nil)
		for i, q := range qs {
			want := kv.LowerBound(keys, q)
			if got := par.Find(q); got != want {
				t.Fatalf("M=%d: Find(%d) = %d, want %d", m, q, got, want)
			}
			if batch[i] != want {
				t.Fatalf("M=%d: FindBatch[%d] = %d for q=%d, want %d", m, i, batch[i], q, want)
			}
		}
	}
}

// TestCoverageCheckClearsMonotone: the build keeps a range table's
// monotone flag exactly when the model declares it and every partition's
// window derived from the next lower bound covers the window its own keys
// need. A lie the predictions show (reversed, or two adjacent keys
// swapped) clears it; an honest model keeps it; a model that declares
// itself non-monotone never has it. Midpoint tables keep the declaration:
// they never trust a window.
func TestCoverageCheckClearsMonotone(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 10_000, 4)
	im := cdfmodel.NewInterpolation(keys)
	at := len(keys) / 2
	for im.Predict(keys[at]) == im.Predict(keys[at+1]) {
		at++ // two adjacent keys the model tells apart
	}
	swap := &swapModel{inner: im, a: keys[at], b: keys[at+1]}
	for _, c := range []struct {
		name  string
		model cdfmodel.Model[uint64]
		cfg   Config
		want  bool
	}{
		{"IM", im, Config{}, true},
		{"IM/M=N4", im, Config{M: len(keys) / 4}, true},
		{"linear", cdfmodel.NewLinear(keys), Config{}, true},
		{"cubic", cdfmodel.NewCubic(keys), Config{}, false},
		{"reversed", &lyingModel{inner: im, n: len(keys)}, Config{}, false},
		{"reversed/M=N4", &lyingModel{inner: im, n: len(keys)}, Config{M: len(keys) / 4}, false},
		{"swapped", swap, Config{}, false},
		{"swapped/midpoint", swap, Config{Mode: ModeMidpoint}, true},
	} {
		tab, err := Build(keys, c.model, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tab.monotone != c.want {
			t.Errorf("%s: monotone = %v, want %v", c.name, tab.monotone, c.want)
		}
		for i := 0; i < len(keys); i += 7 {
			for _, q := range []uint64{keys[i] - 1, keys[i], keys[i] + 1} {
				if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
					t.Fatalf("%s: Find(%d) = %d, want %d", c.name, q, got, want)
				}
			}
		}
	}
}

// TestDerivedWindowsMatchStoredBounds: under a monotone model (IM,
// linear), the window a range lookup derives from lo[k] and lo[k+1] is
// exactly the window layers stored as a <lo, hi> pair before
// (brute-forced by storedBounds), at M = N, below it and above it; entry
// M is 0, and the entries are packed at the narrowest width that holds
// them.
func TestDerivedWindowsMatchStoredBounds(t *testing.T) {
	for name, keys := range buildCorpora64() {
		for _, c := range []struct {
			model cdfmodel.Model[uint64]
			m     int
		}{
			{cdfmodel.NewInterpolation(keys), 0},
			{cdfmodel.NewInterpolation(keys), 999},
			{cdfmodel.NewInterpolation(keys), 2*len(keys) + 1},
			{cdfmodel.NewLinear(keys), 0},
			{cdfmodel.NewLinear(keys), len(keys)/4 + 1},
		} {
			tab, err := Build(keys, c.model, Config{Mode: ModeRange, M: c.m})
			if err != nil {
				t.Fatal(err)
			}
			if tab.n == 0 {
				continue
			}
			name := name + "/" + c.model.Name()
			if !tab.monotone {
				t.Fatalf("%s M=%d: the table lost its monotone flag", name, tab.m)
			}
			lo, hi, _ := storedBounds(tab)
			var maxAbs int64
			for k := 0; k < tab.m; k++ {
				dlo, dhi := tab.window(0, k)
				if int64(dlo) != lo[k] || int64(dhi) != hi[k] {
					t.Fatalf("%s M=%d: partition %d window [%d, %d], stored [%d, %d]",
						name, tab.m, k, dlo, dhi, lo[k], hi[k])
				}
				maxAbs = max(maxAbs, lo[k], -lo[k])
			}
			if got := tab.drift.get(tab.m); got != 0 {
				t.Fatalf("%s M=%d: closing entry %d, want 0", name, tab.m, got)
			}
			if w := driftWidth(maxAbs); tab.drift.width != w || tab.drift.len() != tab.m+1 {
				t.Fatalf("%s M=%d: %d entries of %d bytes, want %d of %d",
					name, tab.m, tab.drift.len(), tab.drift.width, tab.m+1, w)
			}
		}
	}
}

func TestParallelBuildFallbacks(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 10_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	// Sampled midpoint builds take one worker but must still work.
	sampled := Config{Mode: ModeMidpoint, SampleStride: 8}
	tab, err := buildPipeline(keys, model, sampled, 4)
	if err != nil {
		t.Fatal(err)
	}
	one, err := buildPipeline(keys, model, sampled, 1)
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
	if _, err := buildPipeline([]uint64{3, 1, 2}, model, Config{}, 4); err == nil {
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
	tab, err := buildPipeline(keys, cdfmodel.NewInterpolation(keys), Config{}, 8)
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

// TestSpreadWide: the even cuts guessWidth samples at and shards start
// from stay exact where i·n passes 2^31, which a 32-bit int reaches in
// guessWidth from about 8.4M keys.
func TestSpreadWide(t *testing.T) {
	for _, n := range []int{0, 1, 8_421_506, 100_000_000, math.MaxInt32} {
		for _, count := range []int{1, 2, 7, 255} {
			prev := 0
			for i := 0; i <= count; i++ {
				got := spread(i, count, n)
				if want := int(uint64(i) * uint64(n) / uint64(count)); got != want || got < prev {
					t.Fatalf("spread(%d, %d, %d) = %d, want %d (after %d)", i, count, n, got, want, prev)
				}
				prev = got
			}
			if prev != n {
				t.Fatalf("spread(%d, %d, %d) = %d, want n", count, count, n, prev)
			}
		}
	}
}

// TestParallelBuildServesBatch pins the scratch-pool initialisation of the
// multi-worker build: its table must run the batched query engine (which
// draws from Table.scratch) without a nil pool.
func TestParallelBuildServesBatch(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 10_000, 3)
	model := cdfmodel.NewInterpolation(keys)
	table, err := buildPipeline(keys, model, Config{}, 4)
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
// pool end to end, and every link must be bit-identical to a
// from-scratch build over the same keys.
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
		if next.scratch != first.scratch {
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
