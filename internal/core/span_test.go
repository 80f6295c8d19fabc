package core

import (
	"math/rand"
	"testing"
)

// TestSpanClosedForm: below M = N, spanTerm's closed form equals the
// definition pmax(k+1) − pmin(k) − 1 for every partition k ∈ [0, M] —
// partition M included, where the cap at N binds — at M = 1, N/8, N/3
// and N − 1. At N near 2^31, where kN needs 62 bits, it checks the first
// and last 4,096 partitions and 100,000 random ones.
func TestSpanClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{2, 3, 9, 1_000, 4_097, 65_536, 1<<31 - 1, 1<<31 - 3} {
		for _, m := range []int{1, n / 8, n / 3, n - 1} {
			if m < 1 {
				continue
			}
			tab := &Table[uint64]{n: n, m: m}
			st := tab.spans()
			check := func(k int) {
				want := int(tab.pmax(k+1) - tab.pmin(k) - 1)
				if got := st.of(k); got != want {
					t.Fatalf("N=%d M=%d: span(%d) closed form = %d, want %d", n, m, k, got, want)
				}
				if got := tab.span(k); got != want {
					t.Fatalf("N=%d M=%d: Table.span(%d) = %d, want %d", n, m, k, got, want)
				}
			}
			if m <= 1<<17 {
				for k := 0; k <= m; k++ {
					check(k)
				}
				continue
			}
			for k := 0; k < 4_096; k++ {
				check(k)
				check(m - k)
			}
			for i := 0; i < 100_000; i++ {
				check(rng.Intn(m + 1))
			}
		}
	}
}
