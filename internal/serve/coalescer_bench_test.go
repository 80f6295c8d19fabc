package serve

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkFindDirect is the per-request baseline: every client goroutine
// answers its own query with a scalar tagged lookup, as direct mode does.
func BenchmarkFindDirect(b *testing.B) {
	ix, top := faceIndex(b, 2_000_000)
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := rand.New(rand.NewSource(7))
		sum := 0
		for pb.Next() {
			rank, _ := ix.FindTagged(rnd.Uint64() % top)
			sum += rank
		}
		_ = sum
	})
}

// BenchmarkFindCoalesced routes the same concurrent load through the
// wave coalescer.
func BenchmarkFindCoalesced(b *testing.B) {
	ix, top := faceIndex(b, 2_000_000)
	co := NewCoalescer(ix, CoalescerConfig{})
	b.Cleanup(co.Close)
	ctx := context.Background()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := rand.New(rand.NewSource(7))
		for pb.Next() {
			for {
				if _, _, err := co.Find(ctx, rnd.Uint64()%top); err == nil {
					break
				}
			}
		}
	})
}
