package bench

import (
	"runtime"
	"testing"
	"time"
)

func TestRunConcurrentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-workload measurement")
	}
	pts, err := RunConcurrent(ConcurrentConfig{
		N:        60_000,
		Duration: 120 * time.Millisecond,
		Seed:     5,
		Readers:  []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for _, p := range pts {
		if p.ReadsPerSec <= 0 {
			t.Errorf("%s/%s readers=%d: zero read throughput", p.Dataset, p.Compaction, p.Readers)
		}
		if p.WritesPerSec <= 0 {
			t.Errorf("%s/%s readers=%d: zero write throughput", p.Dataset, p.Compaction, p.Readers)
		}
		if p.Compaction == "off" && p.Rebuilds != 0 {
			t.Errorf("compaction off, yet compacted %d times", p.Rebuilds)
		}
		// The acceptance bar: readers made progress during in-flight
		// compactions. On one CPU the compactor and readers time-share,
		// so the sample can legitimately be empty there.
		if p.Compaction == "background" && p.Rebuilds > 0 &&
			runtime.GOMAXPROCS(0) > 1 && p.ReadsDuringCompaction == 0 {
			t.Errorf("%s readers=%d: %d rebuilds but no reads completed during compaction",
				p.Compaction, p.Readers, p.Rebuilds)
		}
	}
}
