package serve

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/concurrent"
)

func benchIndex(b *testing.B, n int) *concurrent.Index[uint64] {
	b.Helper()
	keys := make([]uint64, n)
	rnd := rand.New(rand.NewSource(1))
	var k uint64
	for i := range keys {
		k += uint64(rnd.Intn(64) + 1)
		keys[i] = k
	}
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ix.Close() // no background compaction: explicit Compact calls only
	return ix
}

// BenchmarkFindDirect is the per-request baseline: every client goroutine
// answers its own query with a scalar tagged lookup, as direct mode does.
func BenchmarkFindDirect(b *testing.B) {
	ix := benchIndex(b, 2_000_000)
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := rand.New(rand.NewSource(7))
		sum := 0
		for pb.Next() {
			rank, _ := ix.FindTagged(rnd.Uint64() % (1 << 27))
			sum += rank
		}
		_ = sum
	})
}

// BenchmarkFindCoalesced routes the same concurrent load through the
// wave coalescer.
func BenchmarkFindCoalesced(b *testing.B) {
	ix := benchIndex(b, 2_000_000)
	co := NewCoalescer(ix, CoalescerConfig{})
	b.Cleanup(co.Close)
	ctx := context.Background()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := rand.New(rand.NewSource(7))
		for pb.Next() {
			for {
				if _, _, err := co.Find(ctx, rnd.Uint64()%(1<<27)); err == nil {
					break
				}
			}
		}
	})
}
