package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
)

// This file is the mixed read/write throughput experiment over
// internal/concurrent: the serving-side question behind the ROADMAP's
// north star. The paper measures read-only lookup latency; a production
// index also has to answer how many lookups per second survive a write
// storm, and — the acceptance bar for the concurrent design — whether
// readers keep making progress while a compaction rebuilds the base
// Shift-Table off to the side.

// ConcurrentConfig parameterises RunConcurrent.
type ConcurrentConfig struct {
	// N is the initial key count (0 = 1M).
	N int
	// Duration per measurement cell (0 = 300ms).
	Duration time.Duration
	// Seed for dataset and workloads.
	Seed int64
	// Readers is the sweep of reader goroutine counts (nil = 1, 2, 4).
	// Every cell also runs one writer goroutine.
	Readers []int
	// Spec is the dataset (zero value = face64).
	Spec dataset.Spec
}

// ConcurrentPoint is one (compaction, readers) measurement cell.
type ConcurrentPoint struct {
	Dataset string
	// Compaction is "background" (the index's compaction rule) or "off"
	// (closed right after New, so nothing compacts).
	Compaction string
	Readers    int

	ReadsPerSec  float64 // scalar Find completions per second, all readers
	WritesPerSec float64 // insert/delete completions per second
	Rebuilds     int     // compactions completed inside the window
	// ReadsDuringCompaction counts reads that completed while a rebuild
	// was in flight — the "reader throughput does not drop to zero"
	// evidence. Expect 0 when Rebuilds is 0 (compaction off) and on a
	// single-CPU run, where the compactor and readers time-share.
	ReadsDuringCompaction int64
}

// RunConcurrent measures the mixed-workload sweep: compaction background
// and off, each across the reader counts.
func RunConcurrent(cfg ConcurrentConfig) ([]ConcurrentPoint, error) {
	if cfg.N == 0 {
		cfg.N = 1_000_000
	}
	if cfg.Duration == 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	if cfg.Readers == nil {
		cfg.Readers = []int{1, 2, 4}
	}
	if cfg.Spec == (dataset.Spec{}) {
		cfg.Spec = dataset.Spec{Name: dataset.Face, Bits: 64}
	}
	keys, err := dataset.Generate(cfg.Spec.Name, cfg.Spec.Bits, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []ConcurrentPoint
	for _, compaction := range []string{"background", "off"} {
		for _, readers := range cfg.Readers {
			pt, err := concurrentCell(keys, cfg, compaction, readers)
			if err != nil {
				return nil, fmt.Errorf("compaction %s, %d readers: %w", compaction, readers, err)
			}
			pt.Dataset = cfg.Spec.String()
			out = append(out, pt)
		}
	}
	return out, nil
}

func concurrentCell(keys []uint64, cfg ConcurrentConfig, compaction string, readers int) (ConcurrentPoint, error) {
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		return ConcurrentPoint{}, err
	}
	defer ix.Close()
	if compaction == "off" {
		ix.Close()
	}

	var stop atomic.Bool
	var reads, writes, readsDuringCompaction atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var n, during int64
			for !stop.Load() {
				q := keys[rng.Intn(len(keys))]
				_ = ix.Find(q)
				n++
				if ix.Compacting() {
					during++
				}
			}
			reads.Add(n)
			readsDuringCompaction.Add(during)
		}(cfg.Seed + int64(r) + 1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.Seed + 7919))
		domain := keys[len(keys)-1] + 2
		var inserted []uint64
		var n int64
		for !stop.Load() {
			if rng.Intn(4) != 0 || len(inserted) == 0 {
				k := rng.Uint64() % domain
				ix.Insert(k)
				inserted = append(inserted, k)
			} else {
				i := rng.Intn(len(inserted))
				ix.Delete(inserted[i])
				inserted[i] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
			}
			n++
		}
		writes.Add(n)
	}()

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := ix.Err(); err != nil {
		return ConcurrentPoint{}, err
	}
	return ConcurrentPoint{
		Compaction:            compaction,
		Readers:               readers,
		ReadsPerSec:           float64(reads.Load()) / elapsed,
		WritesPerSec:          float64(writes.Load()) / elapsed,
		Rebuilds:              ix.Rebuilds(),
		ReadsDuringCompaction: readsDuringCompaction.Load(),
	}, nil
}
