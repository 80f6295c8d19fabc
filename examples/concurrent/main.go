// Concurrent: serve the updatable Shift-Table index from many goroutines
// at once. Readers load an immutable snapshot through one atomic pointer
// and never block; writers serialise onto a fresh write generation; a
// background compactor rebuilds the base table + CDF model off to the
// side and publishes the result with a single pointer swap, replaying the
// writes that landed mid-rebuild. See DESIGN.md §6 for the lifecycle.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
)

func main() {
	// Build over sorted keys, exactly like the single-threaded examples.
	// The background compactor rebuilds the base whenever pending writes
	// reach 1/64 of the live keys (31,250 here).
	keys := dataset.MustGenerate(dataset.Face, 64, 2_000_000, 1)
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close() // stops the background compactor

	// Readers: lock-free snapshot loads, safe during writes and
	// compactions. Batch reads answer every query from one snapshot.
	var reads atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			qs := make([]uint64, 256)
			out := make([]int, 256)
			for !stop.Load() {
				for i := range qs {
					qs[i] = keys[rng.Intn(len(keys))]
				}
				out = ix.FindBatch(qs, out)
				reads.Add(int64(len(qs)))
			}
		}(int64(r))
	}

	// One writer storms inserts and deletes while the readers run.
	rng := rand.New(rand.NewSource(42))
	domain := keys[len(keys)-1] + 2
	start := time.Now()
	for i := 0; i < 200_000; i++ {
		k := rng.Uint64() % domain
		if i%4 == 3 {
			ix.Delete(k)
		} else {
			ix.Insert(k)
		}
	}
	writeDur := time.Since(start)

	// Let the compactor catch up, then quiesce.
	for ix.Pending() >= ix.Len()/64 && ix.Err() == nil {
		//shift:allow-sleep(example quiesce poll; the loop exits as soon as the compactor catches up or errors)
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if err := ix.Err(); err != nil {
		log.Fatal(err)
	}

	st := ix.Stats()
	fmt.Printf("200k writes in %v alongside %d lock-free reads\n", writeDur.Round(time.Millisecond), reads.Load())
	fmt.Printf("state: %d live keys, %d pending writes, %d background rebuilds\n",
		st.Live, st.Pending, st.Rebuilds)

	// Point reads and range scans see one consistent snapshot each.
	q := keys[len(keys)/2]
	rank, found := ix.Lookup(q)
	fmt.Printf("Lookup(%d) = rank %d, found %v\n", q, rank, found)
	count := 0
	ix.Scan(q, q+1_000_000, func(uint64) bool { count++; return count < 5 })
	fmt.Printf("Scan visited %d keys after the storm\n", count)

	// Manual compaction folds the remaining pending writes into the base.
	if err := ix.Compact(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after manual compaction: %v\n", ix)
}
