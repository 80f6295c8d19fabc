package concurrent

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kv"
)

// waitForRebuild blocks until the background compactor has run at least
// once (on one CPU it may only get scheduled after the writes end).
func waitForRebuild(t *testing.T, ix *Index[uint64]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ix.Rebuilds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ix.Rebuilds() == 0 {
		t.Error("writes never triggered a background compaction")
	}
}

// TestSnapshotConsistencyUnderWrites checks the acceptance invariant at
// package level: readers racing a writer and the compactor only ever
// observe fully-consistent snapshots. Each probe below is answered from a
// single snapshot, so its internal arithmetic must hold no matter how many
// publications happen mid-storm; and with an insert-only writer, ranks a
// single reader observes for a pinned query are monotone (atomic snapshot
// loads observe publications in order).
func TestSnapshotConsistencyUnderWrites(t *testing.T) {
	// Base: even keys 0..2N. The writer inserts odd keys; evens are
	// immortal sentinels.
	const n = 2_000
	initial := make([]uint64, n)
	for i := range initial {
		initial[i] = uint64(2 * i)
	}
	ix, err := New(initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	writes := 20_000
	if testing.Short() {
		writes = 4_000
	}
	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}
	var stop atomic.Bool
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pinned := uint64(2 * n) // above every even sentinel; writer inserts below and above
			lastPinnedRank := -1
			qs := make([]uint64, 64)
			out := make([]int, 64)
			for !stop.Load() {
				switch rng.Intn(4) {
				case 0:
					// Sorted batch from one snapshot: ranks non-decreasing.
					q := uint64(rng.Intn(4 * n))
					for i := range qs {
						qs[i] = q + uint64(i)
					}
					out = ix.FindBatch(qs, out)
					for i := 1; i < len(out); i++ {
						if out[i] < out[i-1] {
							errs <- "sorted FindBatch returned decreasing ranks"
							return
						}
					}
				case 1:
					// Sentinels are never deleted.
					s := uint64(2 * rng.Intn(n))
					if _, found := ix.Lookup(s); !found {
						errs <- "sentinel key vanished mid-storm"
						return
					}
				case 2:
					// Insert-only writer: pinned rank is monotone per reader.
					r := ix.Find(pinned)
					if r < lastPinnedRank {
						errs <- "pinned rank went backwards under an insert-only writer"
						return
					}
					lastPinnedRank = r
				default:
					// Scans come out sorted and in range.
					a := uint64(rng.Intn(2 * n))
					b := a + uint64(rng.Intn(200))
					prev, first := uint64(0), true
					bad := false
					ix.Scan(a, b, func(k uint64) bool {
						if k < a || k > b || (!first && k < prev) {
							bad = true
							return false
						}
						prev, first = k, false
						return true
					})
					if bad {
						errs <- "scan yielded out-of-range or unsorted keys"
						return
					}
				}
			}
		}(int64(r) * 977)
	}

	// Insert-only writer storm (keeps the monotone-rank invariant valid),
	// racing the background compactor the whole time.
	rng := rand.New(rand.NewSource(1))
	ref := append([]uint64(nil), initial...)
	for i := 0; i < writes; i++ {
		k := uint64(rng.Intn(4*n))<<1 + 1 // odd
		ix.Insert(k)
		j := kv.UpperBound(ref, k)
		ref = append(ref, 0)
		copy(ref[j+1:], ref[j:])
		ref[j] = k
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if err := ix.Err(); err != nil {
		t.Fatal(err)
	}
	waitForRebuild(t, ix)

	// Quiescent: the live multiset matches the single-writer reference.
	if got, want := ix.Len(), len(ref); got != want {
		t.Fatalf("Len after storm = %d, want %d", got, want)
	}
	i := 0
	ok := true
	ix.Scan(0, ^uint64(0), func(k uint64) bool {
		if i >= len(ref) || ref[i] != k {
			ok = false
			return false
		}
		i++
		return true
	})
	if !ok || i != len(ref) {
		t.Fatal("post-storm scan does not match the reference multiset")
	}
}
