package cdfmodel

import (
	"math"
	"math/rand"
	"testing"
)

// toFloatCases are the conversions most likely to round wrongly: the
// halves' boundary, the edge of float64's exact range, and the ties
// between two floats at every magnitude where uint64s have them.
func toFloatCases() []uint64 {
	xs := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3, 1 << 63, math.MaxUint64}
	for p := 54; p <= 63; p++ {
		pow, half := uint64(1)<<p, uint64(1)<<(p-53) // half: half an ulp at 2^p
		for _, x := range []uint64{pow + half, pow + 3*half, pow + 5*half, pow + half - 1, pow + half + 1, pow - 1} {
			xs = append(xs, x)
		}
	}
	// A tie at 2^64 - 2^10 rounds up to 2^64.
	return append(xs, math.MaxUint64-1<<10, math.MaxUint64-1<<10+1, math.MaxUint64-1<<11)
}

func checkToFloat(t *testing.T, x uint64) {
	t.Helper()
	if got, want := toFloat(x), float64(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("toFloat(%d) = %v, float64 = %v", x, got, want)
	}
	if got, want := toFloat(uint64(uint32(x))), float64(uint32(x)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("toFloat(uint32 %d) = %v, float64 = %v", uint32(x), got, want)
	}
}

// TestToFloatExact holds the prediction paths' key conversion to Go's
// float64 conversion, bit for bit, for 32- and 64-bit keys.
func TestToFloatExact(t *testing.T) {
	for _, x := range toFloatCases() {
		checkToFloat(t, x)
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 1_000_000; i++ {
		checkToFloat(t, rng.Uint64()>>rng.Intn(64)) // every magnitude alike
	}
}

func FuzzToFloat(f *testing.F) {
	for _, x := range toFloatCases() {
		f.Add(x)
	}
	f.Fuzz(checkToFloat)
}
