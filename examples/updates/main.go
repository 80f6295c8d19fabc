// updates: the paper's §6 future-work direction made concrete — a
// Shift-Table index under a mixed read/write workload. Inserts and deletes
// land in small immutable write generations on top of the read-optimised
// base; a query corrects the base rank by the generations' counts below
// it, and a background compaction rebuilds the model and layer once the
// pending writes reach 1/64 of the live keys.
//
//	go run ./examples/updates
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
)

func main() {
	// Start from 1M Facebook-like user IDs.
	initial := dataset.MustGenerate(dataset.Face, 64, 1_000_000, 5)
	ix, err := concurrent.New(initial, concurrent.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	fmt.Printf("initial: %d keys\n", ix.Len())

	// A day of churn: 200k new users, 100k departures, queries throughout.
	rng := rand.New(rand.NewSource(9))
	domain := initial[len(initial)-1]
	start := time.Now()
	inserted, deleted, queries := 0, 0, 0
	for op := 0; op < 500_000; op++ {
		switch rng.Intn(5) {
		case 0, 1: // new user
			ix.Insert(rng.Uint64() % domain)
			inserted++
		case 2: // departure
			if ix.Delete(initial[rng.Intn(len(initial))]) {
				deleted++
			}
		default: // lookup
			q := rng.Uint64() % domain
			_ = ix.Find(q)
			queries++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("workload: %d inserts, %d deletes, %d lookups in %v (%.0f ns/op)\n",
		inserted, deleted, queries, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/500_000)
	fmt.Printf("state: %v\n", ix)

	// Reads remain exact lower-bound semantics after all that churn.
	var sample []uint64
	ix.Scan(initial[500_000], domain, func(k uint64) bool {
		sample = append(sample, k)
		return len(sample) < 5
	})
	fmt.Printf("first keys at the scan point: %v\n", sample)

	// Force a compaction: every pending write folds into a rebuilt base.
	if err := ix.Compact(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after compaction: %v\n", ix)
}
