// Persist: save a built index as a verified snapshot and warm-start from
// it — the restart path of a serving deployment (DESIGN.md §9).
//
// A Shift-Table is cheap to build (one pass), but at serving scale that
// pass still reads the whole key set through the model; a restart that
// rebuilds every index from raw keys is minutes of downtime at the
// paper's 200M-key scale. The snapshot subsystem persists the complete
// index — keys, model identity, layer, and for the concurrent index its
// pending write generations — in one
// checksummed, atomically-renamed container that is verified end to end
// before a single query is answered from it.
//
//	go run ./examples/persist
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
)

func main() {
	dir, err := os.MkdirTemp("", "persist-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- 1. A read-only index: cold build vs warm load. ---------------
	keys := dataset.MustGenerate(dataset.Face, 64, 2_000_000, 1)

	start := time.Now()
	cold, err := index.Build("IM+ST", keys)
	if err != nil {
		log.Fatal(err)
	}
	coldMs := ms(start)
	fmt.Printf("cold build: IM+ST over %d keys in %.1f ms\n", len(keys), coldMs)

	path := filepath.Join(dir, "imst.snap")
	start = time.Now()
	if err := index.SaveFile[uint64](path, cold); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("saved:      %s (%.1f MiB) in %.1f ms — temp file + atomic rename, trailing checksum\n",
		path, float64(st.Size())/(1<<20), ms(start))

	start = time.Now()
	warm, err := index.LoadFile[uint64](path)
	if err != nil {
		log.Fatal(err)
	}
	loadMs := ms(start)
	fmt.Printf("warm load:  verified and restored in %.1f ms (%.1fx faster than the cold build)\n",
		loadMs, coldMs/loadMs)

	// Bit-identical answers, spot-checked against the reference.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		q := keys[rng.Intn(len(keys))]
		if got, want := warm.Find(q), kv.LowerBound(keys, q); got != want {
			log.Fatalf("warm Find(%d) = %d, want %d", q, got, want)
		}
	}
	fmt.Println("verified:   200k probes answer identically to the reference ranks")

	// A flipped byte anywhere in the file is caught before any query.
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 1
	bad := filepath.Join(dir, "tampered.snap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	if _, err := index.LoadFile[uint64](bad); err != nil {
		fmt.Printf("tampered:   rejected as expected (%v)\n", err)
	} else {
		log.Fatal("tampered snapshot loaded!")
	}

	// --- 2. A serving index: snapshot under writes, warm restart. -----
	fmt.Println()
	serving, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		log.Fatal(err)
	}
	serving.Close() // no background compaction: explicit Compact calls only
	for i := 0; i < 30_000; i++ {
		if i%3 == 0 {
			serving.Delete(keys[rng.Intn(len(keys))])
		} else {
			serving.Insert(rng.Uint64())
		}
	}
	fmt.Printf("serving:    %v\n", serving)

	spath := filepath.Join(dir, "serving.snap")
	start = time.Now()
	if err := concurrent.SaveFile(spath, serving); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot:   taken lock-free in %.1f ms (one atomic pointer load; writers keep writing)\n", ms(start))

	start = time.Now()
	restarted, err := concurrent.LoadFile[uint64](spath)
	if err != nil {
		log.Fatal(err)
	}
	defer restarted.Close()
	fmt.Printf("restart:    live again in %.1f ms — base loaded, %d pending writes merged into one sealed run\n",
		ms(start), restarted.Pending())
	if got, want := restarted.Len(), serving.Len(); got != want {
		log.Fatalf("restarted Len = %d, want %d", got, want)
	}
	fmt.Printf("restored:   %v (live key count matches)\n", restarted)

	// The restored index serves and compacts like the original.
	restarted.Insert(123456789)
	if err := restarted.Compact(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("continued:  %v after one insert and a compaction\n", restarted)
}

func ms(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
