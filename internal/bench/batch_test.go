package bench

import (
	"testing"

	"repro/internal/dataset"
)

// TestRunBatchSmall validates the throughput-sweep plumbing at reduced
// scale: every (dataset, mode, batch size) cell is present, validated
// against the reference ranks (MeasureBatch fails on any wrong result).
func TestRunBatchSmall(t *testing.T) {
	pts, err := RunBatch(BatchConfig{
		N:          30_000,
		Queries:    4_096,
		Reps:       1,
		Seed:       3,
		BatchSizes: []int{16, 256},
		Specs: []dataset.Spec{
			{Name: dataset.UDen, Bits: 64},
			{Name: dataset.Face, Bits: 32},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(pts) != want { // datasets x modes x batch sizes
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if p.BatchNs <= 0 || p.ScalarNs <= 0 {
			t.Fatalf("non-positive timing in %+v", p)
		}
		seen[p.Dataset+"/"+p.Mode] = true
	}
	for _, k := range []string{"uden64/R", "uden64/S", "face32/R", "face32/S"} {
		if !seen[k] {
			t.Fatalf("missing cell %s", k)
		}
	}
}

// TestMeasureBatchValidates ensures MeasureBatch rejects a broken batch
// implementation instead of timing it.
func TestMeasureBatchValidates(t *testing.T) {
	keys := dataset.MustGenerate(dataset.UDen, 64, 10_000, 1)
	w := NewWorkload(keys, 512, 2)
	_, err := w.MeasureBatch(func(qs []uint64, out []int) []int {
		for i := range qs {
			out[i] = 0 // wrong on purpose
		}
		return out[:len(qs)]
	}, 64, 1)
	if err == nil {
		t.Fatal("MeasureBatch accepted a broken batch function")
	}
}
