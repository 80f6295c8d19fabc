// Package cdfmodel provides the learned CDF models used throughout the
// repository: the paper's "dummy" min/max interpolation model (IM, §4.1),
// least-squares linear models (the leaves of RMI and the single-line model
// of §3.6/Fig. 6), and cubic models (an RMI root option, §3.8).
//
// A model approximates the empirical CDF F of a sorted key array: Predict
// returns the estimated position [N·Fθ(x)] of a key (§3). Models report
// whether they are guaranteed monotone, which determines whether a
// Shift-Table built on them can guarantee its search windows (§3.8).
package cdfmodel

import (
	"math"

	"repro/internal/kv"
)

// Model is a learned approximation of the empirical CDF of a sorted key set.
type Model[K kv.Key] interface {
	// Predict returns the estimated position of k, clamped to [0, N-1]
	// (N = number of keys the model was trained on). For an empty key set
	// it returns 0.
	Predict(k K) int
	// Monotone reports whether Predict is guaranteed non-decreasing in k.
	// A monotone model lets a Shift-Table guarantee its local-search
	// windows (§3.8); a non-monotone one (e.g. cubic RMI) degrades the
	// window to a hint.
	Monotone() bool
	// SizeBytes is the in-memory footprint of the model parameters, used
	// for the index-size sweeps of Fig. 8.
	SizeBytes() int
	// Name identifies the model family in benchmark output.
	Name() string
}

// IsMonotoneOn empirically verifies that predictions are non-decreasing
// over the given sorted keys. Build-time validation for models whose
// Monotone() is structural (and a test oracle for those where it is not).
func IsMonotoneOn[K kv.Key](m Model[K], keys []K) bool {
	prev := 0
	for i, k := range keys {
		p := m.Predict(k)
		if i > 0 && p < prev {
			return false
		}
		prev = p
	}
	return true
}

// Interpolation is the paper's IM model (§4.1): Fθ(x) = (x−min)/(max−min),
// a two-parameter line through the endpoints of the key range,
// "deliberately chosen to purely delegate the burden of data modelling to
// the correction layers."
type Interpolation[K kv.Key] struct {
	min   K
	n     int
	scale float64 // (n-1)/(max-min)
}

// NewInterpolation fits the IM model to sorted keys.
func NewInterpolation[K kv.Key](keys []K) *Interpolation[K] {
	m := &Interpolation[K]{n: len(keys)}
	if len(keys) == 0 {
		return m
	}
	m.min = keys[0]
	max := keys[len(keys)-1]
	if span := float64(max) - float64(m.min); span > 0 {
		m.scale = float64(len(keys)-1) / span
	}
	return m
}

// Predict implements Model. The prediction maps min→0 and max→N−1,
// matching the paper's convention N·F(x₀)=0, N·F(x_{N−1})=N−1 (§3.2).
func (m *Interpolation[K]) Predict(k K) int {
	if m.n == 0 || k <= m.min {
		return 0
	}
	v := toFloat(uint64(k-m.min)) * m.scale
	// Clamp in float space: converting an out-of-range float to int is
	// undefined-ish (it saturates to math.MinInt64 on amd64).
	if v >= float64(m.n-1) {
		return m.n - 1
	}
	return int(v)
}

func (m *Interpolation[K]) Monotone() bool { return true }
func (m *Interpolation[K]) SizeBytes() int { return 16 } // min key + scale
func (m *Interpolation[K]) Name() string   { return "IM" }

// Linear is a least-squares line position ≈ slope·key + intercept — the
// "single line as a model" of §3.6 and the leaf model of RMI.
type Linear[K kv.Key] struct {
	slope float64
	xref  float64 // reference key: predictions are evaluated as offsets from it
	yref  float64 // fitted position at the reference key
	n     int
}

// NewLinear fits a least-squares line to (key, position) over sorted keys.
// Both the fit and the prediction are computed in centred coordinates
// (ŷ = ȳ + slope·(x−x̄)): an explicit intercept would be ~slope·x̄, and for
// keys near 2^64 its rounding error alone exceeds hundreds of positions.
func NewLinear[K kv.Key](keys []K) *Linear[K] {
	m := &Linear[K]{n: len(keys)}
	m.slope, m.xref, m.yref = fitLine(keys)
	return m
}

// fitLine returns the least-squares slope and a reference point (xref, yref)
// such that ŷ = yref + slope·(x − xref), for positions 0..len(keys)-1 as
// a function of key value.
//
// All sums are taken over offsets from the first key rather than raw key
// values: accumulating thousands of ~2^64 floats loses ~2^21 per addition,
// which (observed in tests) corrupts the mean by ~10^5 and halves the slope.
// Differences between nearby float64 values are exact, so offset sums are
// well conditioned.
func fitLine[K kv.Key](keys []K) (slope, xref, yref float64) {
	n := len(keys)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return 0, float64(keys[0]), 0
	}
	x0 := float64(keys[0])
	var obar, ybar float64
	for i, k := range keys {
		obar += float64(k) - x0
		ybar += float64(i)
	}
	obar /= float64(n)
	ybar /= float64(n)
	var sxy, sxx float64
	for i, k := range keys {
		dx := (float64(k) - x0) - obar
		sxy += dx * (float64(i) - ybar)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, x0, ybar
	}
	slope = sxy / sxx
	// Re-express around x0 so Predict never reconstructs the huge mean:
	// ŷ = ybar + slope·((x−x0) − obar) = (ybar − slope·obar) + slope·(x−x0).
	return slope, x0, ybar - slope*obar
}

// Predict implements Model.
func (m *Linear[K]) Predict(k K) int {
	if m.n == 0 {
		return 0
	}
	return clampPos(m.PredictFloat(k), m.n)
}

// PredictFloat exposes the un-clamped regression value; RMI roots use it to
// pick a leaf without double clamping.
func (m *Linear[K]) PredictFloat(k K) float64 {
	return m.yref + m.slope*(toFloat(uint64(k))-m.xref)
}

func (m *Linear[K]) Monotone() bool { return m.slope >= 0 }
func (m *Linear[K]) SizeBytes() int { return 16 }
func (m *Linear[K]) Name() string   { return "Linear" }

// Cubic is a least-squares cubic position ≈ c₃x³+c₂x²+c₁x+c₀, an RMI root
// option. The paper notes cubic models are where RMI loses monotonicity
// (§3.8), so Monotone is conservatively false.
type Cubic[K kv.Key] struct {
	c   [4]float64 // coefficients in scaled coordinate u = (x-min)·inv
	min float64
	inv float64 // 1/(max-min)
	n   int
}

// NewCubic fits a least-squares cubic to (key, position) over sorted keys,
// in [0,1]-scaled coordinates for numerical conditioning.
func NewCubic[K kv.Key](keys []K) *Cubic[K] {
	m := &Cubic[K]{n: len(keys)}
	if len(keys) == 0 {
		return m
	}
	m.min = float64(keys[0])
	span := float64(keys[len(keys)-1]) - m.min
	if span <= 0 {
		m.c[0] = float64(len(keys)-1) / 2
		return m
	}
	m.inv = 1 / span
	// Normal equations for a degree-3 polynomial fit: A·c = b with
	// A[i][j] = Σ u^(i+j), b[i] = Σ u^i · pos.
	var s [7]float64 // power sums of u
	var b [4]float64
	for i, k := range keys {
		u := (float64(k) - m.min) * m.inv
		up := 1.0
		for p := 0; p < 7; p++ {
			s[p] += up
			if p < 4 {
				b[p] += up * float64(i)
			}
			up *= u
		}
	}
	var a [4][5]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a[i][j] = s[i+j]
		}
		a[i][4] = b[i]
	}
	if c, ok := solve4(a); ok {
		m.c = c
	} else {
		// Degenerate system: fall back to a linear fit, re-expressed in
		// the scaled coordinate u = (x-min)/span.
		slope, xb, yb := fitLine(keys)
		m.c = [4]float64{yb + slope*(m.min-xb), slope * span, 0, 0}
	}
	return m
}

// solve4 performs Gaussian elimination with partial pivoting on a 4x5
// augmented matrix.
func solve4(a [4][5]float64) ([4]float64, bool) {
	for col := 0; col < 4; col++ {
		pivot := col
		for r := col + 1; r < 4; r++ {
			if abs(a[r][col]) > abs(a[pivot][col]) {
				pivot = r
			}
		}
		if abs(a[pivot][col]) < 1e-12 {
			return [4]float64{}, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < 5; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	var x [4]float64
	for i := 0; i < 4; i++ {
		x[i] = a[i][4] / a[i][i]
	}
	return x, true
}

// Predict implements Model.
func (m *Cubic[K]) Predict(k K) int {
	if m.n == 0 {
		return 0
	}
	u := (toFloat(uint64(k)) - m.min) * m.inv
	v := m.c[0] + u*(m.c[1]+u*(m.c[2]+u*m.c[3]))
	return clampPos(v, m.n)
}

func (m *Cubic[K]) Monotone() bool { return false }
func (m *Cubic[K]) SizeBytes() int { return 4*8 + 16 }
func (m *Cubic[K]) Name() string   { return "Cubic" }

// toFloat returns float64(x), bit for bit, without a branch. Go compiles
// float64 of a uint64 with a branch on bit 63, which mispredicts on
// random keys whose top bit varies. Here each 32-bit half of x goes into
// the mantissa of a float whose exponent places it: hi·2^32 + 2^84 and
// lo + 2^52, both exact. Subtracting 2^84 + 2^52 from the first is exact
// too (hi·2^32 − 2^52 needs at most 32 significant bits), so the final
// addition, hi·2^32 + lo, is the one rounding: the correctly rounded
// float64(x). Summing the two halves' signed conversions instead is as
// exact, but made a 20M-key build about 18% slower. toFloat is not
// generic: a generic version instantiated from another package was not
// inlined, which put a call per key in the loops. The prediction paths
// use it; fitting keeps the plain conversion.
func toFloat(x uint64) float64 {
	hi := math.Float64frombits(x>>32|0x4530000000000000) - (0x1p84 + 0x1p52)
	return hi + math.Float64frombits(x&(1<<32-1)|0x4330000000000000)
}

// clampPos truncates a float position estimate into [0, n-1].
func clampPos(v float64, n int) int {
	if !(v > 0) { // also catches NaN
		return 0
	}
	// Clamp in float space: out-of-range float-to-int conversion saturates
	// to math.MinInt64 on amd64.
	if v >= float64(n-1) {
		return n - 1
	}
	return int(v)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
