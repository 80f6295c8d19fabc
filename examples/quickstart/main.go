// Quickstart: build a Shift-Table-corrected learned index over sorted keys
// and run point and range lookups.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cdfmodel"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	// 1. Sorted keys. Any sorted []uint64 or []uint32 works; here we use
	// the Facebook-like SOSD stand-in from the paper's evaluation.
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000_000, 1)

	// 2. A CDF model. The paper's point (§4.1): even the dummy min/max
	// interpolation model is enough, because the Shift-Table layer absorbs
	// its error.
	model := cdfmodel.NewInterpolation(keys)

	// 3. The Shift-Table layer (defaults: range mode, M = N).
	table, err := core.Build(keys, model, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Point lookup: Find returns lower-bound semantics.
	q := keys[123_456]
	pos, found := table.Lookup(q)
	fmt.Printf("Lookup(%d) -> position %d, found=%v\n", q, pos, found)

	// Lower bound of a non-indexed key.
	pos = table.Find(q + 1)
	fmt.Printf("Find(%d) -> first key >= query is keys[%d] = %d\n", q+1, pos, keys[pos])

	// Range query: all keys in [a, b].
	a, b := keys[1000], keys[1020]
	first, last := table.FindRange(a, b)
	fmt.Printf("FindRange(%d, %d) -> %d records\n", a, b, last-first)

	// What did the layer buy us? Compare the model's raw error with the
	// corrected error (the paper's Fig. 6 in two lines).
	before, _ := core.ModelError(keys, model)
	fmt.Printf("model error: %.0f records -> corrected: %.1f records\n", before, table.MeasuredError())
	fmt.Printf("layer: %d partitions, %d-bit entries, %.1f MiB\n",
		table.M(), table.EntryBits(), float64(table.SizeBytes())/(1<<20))

	// The tuning rules of §4.1, as an advisor.
	adv := table.Advise()
	fmt.Printf("advice: use Shift-Table = %v (%s)\n", adv.UseShiftTable, adv.Reason)
}
