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
// answers its own query with a single-lane tagged batch call.
func BenchmarkFindDirect(b *testing.B) {
	ix := benchIndex(b, 2_000_000)
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := rand.New(rand.NewSource(7))
		q := make([]uint64, 1)
		var out []int
		for pb.Next() {
			q[0] = rnd.Uint64() % (1 << 27)
			out, _ = ix.FindBatchTagged(q, out[:0])
			_ = out
		}
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
