package core

// This file implements the paper's cost model (§3.7) and tuning rules
// (§3.9, §4.1): closed-form latency estimates for the index with and
// without the Shift-Table layer, parameterised by a hardware-dependent
// local-search latency function L(s) obtained from a micro-benchmark
// (internal/bench measures one; tests use analytic stand-ins).

// LatencyFn maps a local-search range of s records to its expected latency
// in nanoseconds over non-cached memory — the paper's L(s), measured by the
// §2.3 micro-benchmark (Fig. 2a). It is an alias, not a defined type, so
// backend packages can implement the index CostEstimator capability
// (internal/index) without importing core.
type LatencyFn = func(s int) float64

// CostEstimate is the output of the §3.7 cost model for one configuration.
type CostEstimate struct {
	ModelNs  float64 // Latency(Fθ): running the model itself
	LayerNs  float64 // the extra lookup into the Shift-Table array
	SearchNs float64 // expected local-search time
	TotalNs  float64
}

// EstimateWith evaluates Eq. 9: the expected lookup latency with the
// Shift-Table enabled,
//
//	Latency = Latency(Fθ) + layer + 1/N · Σ_k Ck·L(Ck),
//
// where the per-partition window Ck is what remains to search after
// correction. modelNs is the measured model execution latency and layerNs
// the cost of the one extra (non-cached) lookup into the mapping array
// (≈40 ns in the paper's setup, §4.1). The counts Ck come from one model
// sweep over the keys.
func (t *Table[K]) EstimateWith(modelNs, layerNs float64, l LatencyFn) CostEstimate {
	est := CostEstimate{ModelNs: modelNs, LayerNs: layerNs}
	if t.n > 0 {
		var acc float64
		for _, c := range t.partitionCounts() {
			if c > 0 {
				acc += float64(c) * l(int(c))
			}
		}
		est.SearchNs = acc / float64(t.n)
	}
	est.TotalNs = est.ModelNs + est.LayerNs + est.SearchNs
	return est
}

// EstimateWithout evaluates Eq. 10: the expected lookup latency of the bare
// model, estimable from the already-built layer without running a benchmark
// (§3.7): the model error for the keys of partition k is Δ̄k = Δk + Ck/2, so
//
//	Latency = Latency(Fθ) + 1/N · Σ_k Ck·L(|Δ̄k|),
//
// with the counts Ck from one model sweep over the keys.
func (t *Table[K]) EstimateWithout(modelNs float64, l LatencyFn) CostEstimate {
	est := CostEstimate{ModelNs: modelNs}
	if t.n > 0 {
		var acc float64
		for k, c := range t.partitionCounts() {
			if c == 0 {
				continue
			}
			var drift int
			if t.mode == ModeRange {
				drift = t.drift.get(k) + int(c)/2
			} else {
				drift = t.drift.get(k)
			}
			if drift < 0 {
				drift = -drift
			}
			if drift < 1 {
				drift = 1
			}
			acc += float64(c) * l(drift)
		}
		est.SearchNs = acc / float64(t.n)
	}
	est.TotalNs = est.ModelNs + est.SearchNs
	return est
}

// The default constants behind the capability-level EstimateNs: the §4.1
// setup charges ~40 ns for the one extra non-cached layer lookup and a few
// nanoseconds for executing a register-resident model. EstimateNs uses
// L(1) — one non-cached probe on this machine — for the layer lookup and
// this constant for the model.
const estimateModelNs = 5.0

// EstimateNs implements the index CostEstimator capability (§3.7
// generalised across backends): the Eq. 9 expectation with the layer
// lookup priced at L(1), one non-cached probe under the supplied latency
// curve.
func (t *Table[K]) EstimateNs(l LatencyFn) float64 {
	return t.EstimateWith(estimateModelNs, l(1), l).TotalNs
}

// Advice is the outcome of the paper's tuning procedure (§3.9, §4.1).
type Advice struct {
	UseShiftTable bool
	Reason        string
	ErrBefore     float64 // mean model error without correction
	ErrAfter      float64 // Eq. 8 estimate with correction
}

// The §4.1 thresholds: skip the layer when the model is already accurate to
// within ~a cache line, or when correction would not repay its ~50 ns lookup
// with at least a 10× error reduction.
const (
	adviseMinError       = 10.0
	adviseMinImprovement = 10.0
)

// Advise applies the paper's two tuning rules (§4.1): do not add the
// Shift-Table if (1) the error before adding it is below 10 records, or
// (2) adding it does not reduce the error by at least a factor of 10.
func Advise(errBefore, errAfter float64) Advice {
	a := Advice{ErrBefore: errBefore, ErrAfter: errAfter}
	switch {
	case errBefore < adviseMinError:
		a.Reason = "model error already below 10 records; correction lookup would not pay off"
	case errAfter > 0 && errBefore/errAfter < adviseMinImprovement:
		a.Reason = "correction reduces error by less than 10x; not worth the extra lookup"
	default:
		a.UseShiftTable = true
		a.Reason = "correction reduces error enough to repay its one extra memory lookup"
	}
	return a
}

// Advise runs the tuning procedure for this built table: it measures the
// model error over the indexed keys, compares it with the layer's Eq. 8
// estimate, and applies the §4.1 rules.
func (t *Table[K]) Advise() Advice {
	before, _ := ModelError(t.keys, t.model)
	return Advise(before, t.AvgError())
}
