// Batch: serve lookups through the batched query engine instead of one
// scalar Find at a time. The staged pipeline (DESIGN.md §5) amortises the
// model's interface dispatch over the batch, gathers the Shift-Table
// drift entries with the width switch hoisted out of the inner loop, and
// probes the key array in an interleaved order so independent lookups'
// cache misses overlap — the scalar path pays all of that serially, per
// query.
//
//	go run ./examples/batch
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	// Build exactly as in examples/quickstart: sorted keys, the paper's
	// dummy IM model, a range-mode Shift-Table.
	keys := dataset.MustGenerate(dataset.Face, 64, 2_000_000, 1)
	model := cdfmodel.NewInterpolation(keys)
	table, err := core.Build(keys, model, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// A batch of queries, e.g. one network request carrying many lookups.
	rng := rand.New(rand.NewSource(7))
	queries := make([]uint64, 4096)
	for i := range queries {
		queries[i] = keys[rng.Intn(len(keys))]
	}

	// FindBatch writes lower-bound ranks into out (reused across calls;
	// steady-state batches allocate nothing).
	out := make([]int, len(queries))
	table.FindBatch(queries, out)
	fmt.Printf("FindBatch: %d queries, first: Find(%d) = %d\n",
		len(queries), queries[0], out[0])

	// Existence and ranges come from the same ranks. A query is present
	// when the key at its rank equals it (what Lookup reports), and the
	// inclusive range [a, b] is the rank span [rank(a), rank(b+1)) (what
	// FindRange reports), so one batch carries both bounds of every range.
	found := make([]bool, 4)
	for i, q := range queries[:4] {
		found[i] = out[i] < len(keys) && keys[out[i]] == q
	}
	fmt.Printf("present (first 4): %v\n", found)

	as := []uint64{keys[1000], keys[5000]}
	bs := []uint64{keys[1020], keys[5100]}
	bounds := table.FindBatch([]uint64{as[0], as[1], bs[0] + 1, bs[1] + 1}, nil)
	for i := range as {
		fmt.Printf("range [%d, %d] -> %d records\n",
			as[i], bs[i], bounds[len(as)+i]-bounds[i])
	}

	// The throughput story: scalar loop vs batched over the same query
	// stream. (Batch results are bit-identical to scalar Find; the
	// property tests enforce it.)
	reps := 8
	start := time.Now()
	sink := 0
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			sink += table.Find(q)
		}
	}
	scalar := time.Since(start)

	start = time.Now()
	for r := 0; r < reps; r++ {
		table.FindBatch(queries, out)
		sink += out[0]
	}
	batched := time.Since(start)
	_ = sink

	perOp := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / float64(reps*len(queries))
	}
	fmt.Printf("scalar:   %6.1f ns/lookup\n", perOp(scalar))
	fmt.Printf("batched:  %6.1f ns/lookup (%.2fx)\n", perOp(batched), perOp(scalar)/perOp(batched))
}
