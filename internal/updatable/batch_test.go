package updatable

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestBatchMatchesScalar verifies FindBatch is bit-identical to scalar
// Find on a duplicate-heavy base and a
// mixed query batch, in both layer modes.
func TestBatchMatchesScalar(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			keys := make([]uint64, 5_000)
			v := uint64(0)
			for i := range keys {
				v += uint64(rng.Intn(50)) // gaps of 0: duplicate runs
				keys[i] = v
			}
			ix, err := New(keys, Config{Layer: core.Config{Mode: mode}})
			if err != nil {
				t.Fatal(err)
			}
			view := ix.View()
			qs := make([]uint64, 2_000)
			for i := range qs {
				switch rng.Intn(6) {
				case 0:
					qs[i] = 0
				case 1:
					qs[i] = ^uint64(0)
				default:
					qs[i] = keys[rng.Intn(len(keys))] + uint64(rng.Intn(3)) - 1
				}
			}
			out := view.FindBatch(qs, nil)
			for i, q := range qs {
				if want := view.Find(q); out[i] != want {
					t.Fatalf("FindBatch[%d] (q=%d) = %d, scalar = %d", i, q, out[i], want)
				}
			}
		})
	}
}

// TestBatchEmptyIndex covers the empty-index edge.
func TestBatchEmptyIndex(t *testing.T) {
	ix, err := New[uint64](nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ix.View().FindBatch([]uint64{1, 2}, nil) {
		if r != 0 {
			t.Fatalf("empty index lane %d: %d, want 0", i, r)
		}
	}
	if got := ix.View().FindBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}
