package core

import (
	"math"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
)

// AvgError returns the paper's analytic error estimate for the corrected
// index (§3.5, Eq. 8): assuming queries are uniformly sampled from the
// indexed keys, ē = 1/(2N) · Σ_k Ck². A prediction error only remains when
// the model maps multiple keys to the same partition. The counts Ck come
// from one model sweep over the keys (partitionCounts).
func (t *Table[K]) AvgError() float64 {
	return t.avgError(t.partitionCounts())
}

// partitionCounts returns the number of keys the model maps to each
// partition, the paper's cardinality Ck, from one model sweep over the
// keys. The layer does not store it: no lookup reads it, only the
// analysis readers in this file and costmodel.go.
func (t *Table[K]) partitionCounts() []int32 {
	cnt := make([]int32, t.m)
	for _, x := range t.keys {
		cnt[t.partitionOf(t.model.Predict(x))]++
	}
	return cnt
}

func (t *Table[K]) avgError(cnt []int32) float64 {
	if t.n == 0 {
		return 0
	}
	var sum float64
	for _, c := range cnt {
		sum += float64(c) * float64(c)
	}
	return sum / (2 * float64(t.n))
}

// Stats summarises the partition structure of a built layer.
type Stats struct {
	N, M           int
	Mode           Mode
	EntryBits      int     // selected drift entry width (§3.9)
	SizeBytes      int     // layer footprint
	EmptyParts     int     // partitions backfilled with pseudo-values (§3.1)
	MaxCount       int     // largest partition cardinality (§3.6's congestion case)
	AvgErrEq8      float64 // Eq. 8 estimate
	MeanAbsDrift   float64 // model error before correction (mean |N·F−N·Fθ|)
	MaxAbsDrift    int     // worst model drift
	MeanLog2Bounds float64 // mean log2(window) — binary-search iterations for last-mile (§4.2)
}

// ComputeStats reports the summary: the partition-count fields from one
// model sweep over the keys (partitionCounts), the model error before
// correction from another (ModelError), and Log2Error's O(M) window sum.
func (t *Table[K]) ComputeStats() Stats {
	cnt := t.partitionCounts()
	s := Stats{
		N:              t.n,
		M:              t.m,
		Mode:           t.mode,
		EntryBits:      t.EntryBits(),
		SizeBytes:      t.SizeBytes(),
		AvgErrEq8:      t.avgError(cnt),
		MeanLog2Bounds: t.log2Error(cnt),
	}
	for _, c := range cnt {
		if c == 0 {
			s.EmptyParts++
		}
		if int(c) > s.MaxCount {
			s.MaxCount = int(c)
		}
	}
	s.MeanAbsDrift, s.MaxAbsDrift = ModelError(t.keys, t.model)
	return s
}

// Log2Error is the Fig. 8 "average log2 error" metric: the mean log2 of
// the last-mile search window, i.e. the expected binary-search iteration
// count after correction (§4.2). Over the partition counts of one model
// sweep it sums the per-partition window widths: each key of partition k
// searches a window of lo[k+1]+span(k)−lo[k]+1 slots regardless of its
// own prediction. Midpoint windows are degenerate ([s, s], width 1) and
// contribute 0.
func (t *Table[K]) Log2Error() float64 {
	if t.n == 0 || t.mode != ModeRange {
		return 0
	}
	return t.log2Error(t.partitionCounts())
}

func (t *Table[K]) log2Error(cnt []int32) float64 {
	if t.n == 0 || t.mode != ModeRange {
		return 0
	}
	var log2Sum float64
	for k, c := range cnt {
		if c == 0 {
			continue
		}
		lo, hi := t.window(0, k)
		log2Sum += float64(c) * math.Log2(float64(max(hi-lo+1, 1)))
	}
	return log2Sum / float64(t.n)
}

// ModelError measures a model's accuracy over its training keys without any
// correction layer: the mean and maximum absolute drift |N·F(x) − N·Fθ(x)|,
// with F using the paper's duplicate semantics (§3.2). This is the paper's
// "error before correction" used by the tuning rules (§4.1).
func ModelError[K kv.Key](keys []K, model cdfmodel.Model[K]) (mean float64, max int) {
	if len(keys) == 0 {
		return 0, 0
	}
	var sum float64
	firstOcc := 0
	for i, x := range keys {
		if i > 0 && x != keys[i-1] {
			firstOcc = i
		}
		d := firstOcc - model.Predict(x)
		if d < 0 {
			d = -d
		}
		sum += float64(d)
		if d > max {
			max = d
		}
	}
	return sum / float64(len(keys)), max
}

// MeasuredError empirically measures the mean absolute distance between the
// position the layer would start its local search at and the true position,
// over the indexed keys — the quantity plotted in Fig. 6 and Fig. 9b. For
// range mode the start point is the window midpoint (the paper's ranged
// estimate, §3.5); for midpoint mode it is the corrected guess itself.
func (t *Table[K]) MeasuredError() float64 {
	if t.n == 0 {
		return 0
	}
	var sum float64
	firstOcc := 0
	for i, x := range t.keys {
		if i > 0 && x != t.keys[i-1] {
			firstOcc = i
		}
		lo, hi := t.Window(x)
		start := (lo + hi) / 2
		d := firstOcc - start
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(t.n)
}

// DriftSeries returns, for every indexed key, the absolute model error
// before correction and after correction — the two series of Fig. 6b. The
// slices are indexed by key position.
func DriftSeries[K kv.Key](t *Table[K]) (before, after []int) {
	before = make([]int, t.n)
	after = make([]int, t.n)
	firstOcc := 0
	for i, x := range t.keys {
		if i > 0 && x != t.keys[i-1] {
			firstOcc = i
		}
		pred := t.model.Predict(x)
		b := firstOcc - pred
		if b < 0 {
			b = -b
		}
		before[i] = b
		lo, hi := t.Window(x)
		a := firstOcc - (lo+hi)/2
		if a < 0 {
			a = -a
		}
		after[i] = a
	}
	return before, after
}
