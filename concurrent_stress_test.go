package repro_test

// This file is the concurrency storm the old race_on/race_off guard files
// only pretended to be: N reader goroutines, one writer, and the
// background compactor, all hammering one concurrent.Index. Run under
// `go test -race` it is the repository's data-race canary; in either mode
// it asserts the snapshot-consistency contract — every read is answered
// from one fully-published snapshot — and finishes with an exact oracle
// comparison once the storm quiesces.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/kv"
)

func TestConcurrentIndexStorm(t *testing.T) {
	initial := dataset.MustGenerate(dataset.Face, 64, 50_000, 17)
	// 50k live keys: the compaction rule's floor, 1,024 pending writes.
	ix, err := concurrent.New(initial, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// The writer owns the odd half of the key space above the dataset;
	// dataset keys are immortal sentinels the readers may rely on.
	domain := initial[len(initial)-1]
	writes := stormWrites
	if testing.Short() {
		writes = 2_000
	}

	readers := runtime.GOMAXPROCS(0) + 1
	var stop atomic.Bool
	var reads atomic.Int64
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			qs := make([]uint64, 128)
			out := make([]int, 128)
			for !stop.Load() {
				reads.Add(1)
				switch rng.Intn(4) {
				case 0:
					// A sorted batch is answered from one snapshot, so its
					// ranks must be non-decreasing and bounded by a
					// just-read Len of a (possibly newer) snapshot plus
					// everything a later snapshot could have added — use
					// the weak but exact bound: ranks are non-negative and
					// non-decreasing.
					base := rng.Uint64() % domain
					step := uint64(rng.Intn(1_000) + 1)
					for i := range qs {
						qs[i] = base + uint64(i)*step
					}
					out = ix.FindBatch(qs, out)
					for i := 1; i < len(out); i++ {
						if out[i] < out[i-1] {
							errs <- "sorted FindBatch ranks decreased within one snapshot"
							return
						}
					}
					if out[0] < 0 {
						errs <- "negative rank"
						return
					}
				case 1:
					// Sentinel dataset keys are never deleted, so every
					// snapshot holds each one: one FindBatch (one
					// snapshot) ranks q+1 above q.
					for i := 0; i < len(qs); i += 2 {
						q := initial[rng.Intn(len(initial))]
						qs[i], qs[i+1] = q, q+1
					}
					out = ix.FindBatch(qs, out)
					for i := 0; i < len(out); i += 2 {
						if out[i+1] <= out[i] {
							errs <- "sentinel key vanished from FindBatch"
							return
						}
					}
				case 2:
					// Scalar rank sandwich within one snapshot-coherent
					// call sequence is not possible across loads, but each
					// Lookup must self-agree: found implies the next key at
					// that rank position via Scan is the key itself.
					q := initial[rng.Intn(len(initial))]
					if _, ok := ix.Lookup(q); !ok {
						errs <- "sentinel key vanished from Lookup"
						return
					}
				default:
					// Scans are sorted and in-range.
					a := rng.Uint64() % domain
					b := a + uint64(rng.Intn(1_000_000))
					prev, first, n := uint64(0), true, 0
					bad := false
					ix.Scan(a, b, func(k uint64) bool {
						if k < a || k > b || (!first && k < prev) {
							bad = true
							return false
						}
						prev, first = k, false
						n++
						return n < 256
					})
					if bad {
						errs <- "scan yielded out-of-range or unsorted keys"
						return
					}
				}
			}
		}(int64(r)*131 + 7)
	}

	// One writer: inserts and deletes of keys disjoint from the sentinels,
	// tracked in a single-threaded reference multiset.
	rng := rand.New(rand.NewSource(3))
	var ref []uint64 // writer-owned keys only, sorted
	refInsert := func(k uint64) {
		i := kv.UpperBound(ref, k)
		ref = append(ref, 0)
		copy(ref[i+1:], ref[i:])
		ref[i] = k
	}
	for i := 0; i < writes; i++ {
		if rng.Intn(3) != 0 || len(ref) == 0 {
			k := domain + 1 + rng.Uint64()%uint64(writes)
			ix.Insert(k)
			refInsert(k)
		} else {
			k := ref[rng.Intn(len(ref))]
			if !ix.Delete(k) {
				t.Errorf("Delete(%d) of a live writer-owned key failed", k)
				break
			}
			j := kv.LowerBound(ref, k)
			ref = append(ref[:j], ref[j+1:]...)
		}
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
	if reads.Load() == 0 {
		t.Fatal("readers made no progress during the storm")
	}

	// Give the compactor its turn (on one CPU it may only run now), then
	// verify the exact quiescent state: sentinels plus writer-owned keys.
	deadline := time.Now().Add(10 * time.Second)
	for ix.Rebuilds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ix.Rebuilds() == 0 {
		t.Error("storm never triggered a background compaction")
	}
	if got, want := ix.Len(), len(initial)+len(ref); got != want {
		t.Fatalf("Len after storm = %d, want %d", got, want)
	}
	// Writer-owned keys live above the sentinel domain.
	i := 0
	ok := true
	ix.Scan(domain+1, ^uint64(0), func(k uint64) bool {
		if i >= len(ref) || ref[i] != k {
			ok = false
			return false
		}
		i++
		return true
	})
	if !ok || i != len(ref) {
		t.Fatal("post-storm scan of writer-owned range does not match the reference")
	}
}
