package cdfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestInterpolationEndpoints(t *testing.T) {
	keys := []uint64{100, 200, 300, 400, 500}
	m := NewInterpolation(keys)
	if got := m.Predict(100); got != 0 {
		t.Errorf("Predict(min) = %d, want 0", got)
	}
	if got := m.Predict(500); got != 4 {
		t.Errorf("Predict(max) = %d, want 4", got)
	}
	if got := m.Predict(300); got != 2 {
		t.Errorf("Predict(mid) = %d, want 2", got)
	}
	// Out-of-range queries clamp.
	if got := m.Predict(50); got != 0 {
		t.Errorf("Predict(below min) = %d, want 0", got)
	}
	if got := m.Predict(9999); got != 4 {
		t.Errorf("Predict(above max) = %d, want 4", got)
	}
}

func TestInterpolationPaperExample(t *testing.T) {
	// Fig. 5 uses Fθ(x) = x/1000 over 100 elements in [0,999]: the model
	// prediction for query 771 must be 77. Keys 0..999 step 10 + offsets
	// approximate this; the pure endpoints 0 and 990 give scale 99/990=0.1.
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i * 10)
	}
	m := NewInterpolation(keys)
	if got := m.Predict(771); got != 77 {
		t.Errorf("Predict(771) = %d, want 77 (paper Fig. 5)", got)
	}
	if got := m.Predict(15); got != 1 {
		t.Errorf("Predict(15) = %d, want 1 (paper Fig. 5 empty-partition example)", got)
	}
}

func TestInterpolationDegenerate(t *testing.T) {
	if got := NewInterpolation([]uint64{}).Predict(5); got != 0 {
		t.Errorf("empty model Predict = %d, want 0", got)
	}
	m := NewInterpolation([]uint64{7, 7, 7})
	if got := m.Predict(7); got != 0 {
		t.Errorf("all-equal model Predict = %d, want 0", got)
	}
	if !m.Monotone() {
		t.Error("IM must be monotone")
	}
}

func TestInterpolationUint32NearDomainTop(t *testing.T) {
	keys := []uint32{0, math.MaxUint32 / 2, math.MaxUint32}
	m := NewInterpolation(keys)
	if got := m.Predict(math.MaxUint32); got != 2 {
		t.Errorf("Predict(max uint32) = %d, want 2", got)
	}
}

func TestLinearFitsExactLine(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(5000 + 3*i)
	}
	m := NewLinear(keys)
	for i, k := range keys {
		if got := m.Predict(k); got != i {
			t.Fatalf("Predict(%d) = %d, want %d", k, got, i)
		}
	}
	if !m.Monotone() {
		t.Error("increasing line must report monotone")
	}
}

func TestLinearHugeKeys(t *testing.T) {
	// Keys near 2^64: the centred fit must stay accurate to within a few
	// positions despite float64 granularity at that magnitude.
	base := uint64(math.MaxUint64 - 1<<30)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = base + uint64(i)*1000
	}
	m := NewLinear(keys)
	for i, k := range keys {
		if got := m.Predict(k); got < i-2 || got > i+2 {
			t.Fatalf("Predict near 2^64: got %d, want ~%d", got, i)
		}
	}
}

func TestLinearDegenerate(t *testing.T) {
	if got := NewLinear([]uint64{}).Predict(1); got != 0 {
		t.Error("empty linear model should predict 0")
	}
	m := NewLinear([]uint64{5})
	if got := m.Predict(5); got != 0 {
		t.Errorf("single-key linear Predict = %d, want 0", got)
	}
	m = NewLinear([]uint64{5, 5, 5, 5})
	got := m.Predict(5)
	if got < 0 || got > 3 {
		t.Errorf("all-equal linear Predict = %d, want within [0,3]", got)
	}
}

func TestCubicFitsCubicData(t *testing.T) {
	// Positions follow the inverse of a cubic: keys[i] grows as i^(1/3)
	// scaled, so position(key) is cubic in key and the model should fit it
	// much better than a line.
	n := 2000
	keys := make([]uint64, n)
	for i := range keys {
		v := float64(i) / float64(n-1)
		keys[i] = uint64(math.Cbrt(v) * 1e12)
	}
	cub := NewCubic(keys)
	lin := NewLinear(keys)
	var cubErr, linErr float64
	for i, k := range keys {
		cubErr += math.Abs(float64(cub.Predict(k) - i))
		linErr += math.Abs(float64(lin.Predict(k) - i))
	}
	if cubErr >= linErr/4 {
		t.Errorf("cubic fit error %.0f not far below linear %.0f", cubErr, linErr)
	}
}

func TestCubicDegenerate(t *testing.T) {
	if got := NewCubic([]uint64{}).Predict(3); got != 0 {
		t.Error("empty cubic model should predict 0")
	}
	m := NewCubic([]uint64{9, 9, 9})
	got := m.Predict(9)
	if got < 0 || got > 2 {
		t.Errorf("all-equal cubic Predict = %d out of range", got)
	}
	// Two points: normal equations are singular; the linear fallback must
	// still produce a sensible increasing fit.
	m = NewCubic([]uint64{0, 100})
	if m.Predict(0) != 0 || m.Predict(100) != 1 {
		t.Errorf("two-point cubic fallback: got (%d,%d), want (0,1)",
			m.Predict(0), m.Predict(100))
	}
}

func TestPredictionsAlwaysInRange(t *testing.T) {
	for _, name := range dataset.Names {
		keys := dataset.MustGenerate(name, 64, 3000, 21)
		models := []Model[uint64]{NewInterpolation(keys), NewLinear(keys), NewCubic(keys)}
		rng := rand.New(rand.NewSource(3))
		for _, m := range models {
			for i := 0; i < 2000; i++ {
				q := rng.Uint64()
				p := m.Predict(q)
				if p < 0 || p >= len(keys) {
					t.Fatalf("%s on %s: Predict(%d) = %d out of [0,%d)", m.Name(), name, q, p, len(keys))
				}
			}
		}
	}
}

func TestIMIsMonotoneEverywhere(t *testing.T) {
	f := func(vals []uint64, q1, q2 uint64) bool {
		if len(vals) == 0 {
			return true
		}
		// Sort in place (quick generates arbitrary order).
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		m := NewInterpolation(vals)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return m.Predict(q1) <= m.Predict(q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsMonotoneOn(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 5)
	if !IsMonotoneOn[uint64](NewInterpolation(keys), keys) {
		t.Error("IM should be monotone on sorted keys")
	}
	if !IsMonotoneOn[uint64](NewLinear(keys), keys) {
		t.Error("fitted increasing line should be monotone on sorted keys")
	}
}

func TestModelMetadata(t *testing.T) {
	keys := []uint64{1, 2, 3}
	for _, m := range []Model[uint64]{NewInterpolation(keys), NewLinear(keys), NewCubic(keys)} {
		if m.Name() == "" {
			t.Error("model must have a name")
		}
		if m.SizeBytes() <= 0 {
			t.Errorf("%s: SizeBytes = %d, want positive", m.Name(), m.SizeBytes())
		}
	}
}
