package index

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/search"
)

// This file is the repository's single conformance harness: every
// registered backend is property-tested against the kv.LowerBound oracle
// over the same corpus set (duplicate-heavy, drifted, empty, and the
// generated distributions), including batch≡scalar and traced≡plain where
// the backend implements those capabilities. It replaces the per-package
// copies of the same Find-agrees-with-LowerBound sweeps the backend
// packages used to carry.

// corpus is one named key multiset the whole registry must agree on.
type corpus[K kv.Key] struct {
	name string
	keys []K
}

func corpora64(t *testing.T) []corpus[uint64] {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	dupHeavy := make([]uint64, 0, 3000)
	for v := uint64(100); len(dupHeavy) < 3000; v += uint64(rng.Intn(50)) {
		run := 1 + rng.Intn(40) // long duplicate runs
		for j := 0; j < run && len(dupHeavy) < 3000; j++ {
			dupHeavy = append(dupHeavy, v)
		}
	}
	return []corpus[uint64]{
		{"empty", nil},
		{"single", []uint64{42}},
		{"allsame", []uint64{7, 7, 7, 7, 7, 7, 7, 7}},
		{"dup-heavy", dupHeavy},
		{"drifted-osmc", dataset.MustGenerate(dataset.Osmc, 64, 5000, 3)},
		{"drifted-face", dataset.MustGenerate(dataset.Face, 64, 5000, 4)},
		{"skewed-logn", dataset.MustGenerate(dataset.LogN, 64, 5000, 5)},
		{"uniform", dataset.MustGenerate(dataset.UDen, 64, 5000, 6)},
		{"wiki-dups", dataset.MustGenerate(dataset.Wiki, 64, 5000, 7)},
	}
}

func corpora32(t *testing.T) []corpus[uint32] {
	t.Helper()
	return []corpus[uint32]{
		{"empty", nil},
		{"logn32", dataset.U32(dataset.MustGenerate(dataset.LogN, 32, 4000, 8))},
		{"amzn32", dataset.U32(dataset.MustGenerate(dataset.Amzn, 32, 4000, 9))},
		{"uspr32", dataset.U32(dataset.MustGenerate(dataset.USpr, 32, 4000, 10))},
	}
}

// conformanceQueries mixes present keys, off-by-one neighbours, random
// probes, below-min and above-max.
func conformanceQueries[K kv.Key](keys []K, rng *rand.Rand) []K {
	qs := make([]K, 0, 1200)
	for i := 0; i < 500; i++ {
		var q K
		if len(keys) > 0 {
			q = keys[rng.Intn(len(keys))]
		}
		qs = append(qs, q, q+1, q-1)
	}
	for i := 0; i < 200; i++ {
		qs = append(qs, K(rng.Uint64()))
	}
	qs = append(qs, 0, kv.MaxKey[K]())
	if len(keys) > 0 {
		qs = append(qs, keys[0], keys[len(keys)-1], keys[0]-1, keys[len(keys)-1]+1)
	}
	return qs
}

// conform runs the full capability matrix of one built backend over one
// corpus.
func conform[K kv.Key](t *testing.T, ix Index[K], keys []K, rng *rand.Rand) {
	t.Helper()
	if ix.Name() == "" {
		t.Fatal("empty backend name")
	}
	if got, want := ix.Len(), len(keys); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	if ix.SizeBytes() < 0 {
		t.Fatalf("SizeBytes() = %d", ix.SizeBytes())
	}
	qs := conformanceQueries(keys, rng)
	want := make([]int, len(qs))
	for i, q := range qs {
		want[i] = kv.LowerBound(keys, q)
		if got := ix.Find(q); got != want[i] {
			t.Fatalf("Find(%v) = %d, want %d", q, got, want[i])
		}
	}

	// Batch ≡ scalar, both through the capability (when implemented) and
	// through the package-level fallback.
	got := FindBatch(ix, qs, nil)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("FindBatch[%d] (q=%v) = %d, want %d", i, qs[i], got[i], want[i])
		}
	}

	// Traced twin ≡ plain lookup.
	if trace := TraceFindFn(ix); trace != nil {
		touch := func(uint64, int) {}
		for i, q := range qs {
			if got := trace(q, touch); got != want[i] {
				t.Fatalf("TraceFind(%v) = %d, want %d", q, got, want[i])
			}
		}
	}

	// Range queries: [first, last) must equal the oracle's lower bounds of
	// a and b+1 (with the b == max sentinel).
	for trial := 0; trial < 200; trial++ {
		var a, b K
		if len(keys) > 0 && trial%2 == 0 {
			a = keys[rng.Intn(len(keys))]
			b = a + K(rng.Intn(1000))
		} else {
			a, b = K(rng.Uint64()), K(rng.Uint64())
		}
		first, last := findRange(ix, a, b)
		wf, wl := 0, 0
		if b >= a {
			wf = kv.LowerBound(keys, a)
			if b == kv.MaxKey[K]() {
				wl = len(keys)
			} else {
				wl = kv.LowerBound(keys, b+1)
			}
		}
		if first != wf || last != wl {
			t.Fatalf("FindRange(%v, %v) = [%d, %d), want [%d, %d)", a, b, first, last, wf, wl)
		}
	}

	// Cost estimates must be finite and non-negative under a sane curve.
	if ce, ok := ix.(CostEstimator); ok {
		l := func(s int) float64 { return 60 + 10*search.Log2N(s) }
		if ns := ce.EstimateNs(l); ns < 0 || ns != ns || ns > 1e12 {
			t.Fatalf("EstimateNs = %v", ns)
		}
	}
}

// TestConformance64 runs every registered backend against every 64-bit
// corpus.
func TestConformance64(t *testing.T) {
	for _, c := range corpora64(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, be := range Registry[uint64]() {
				be := be
				t.Run(be.Name, func(t *testing.T) {
					if reason := be.Applicable(c.keys); reason != "" {
						t.Skipf("N/A: %s", reason)
					}
					ix, err := be.Build(c.keys)
					if err != nil {
						t.Fatalf("Build: %v", err)
					}
					conform(t, ix, c.keys, rand.New(rand.NewSource(21)))
				})
			}
		})
	}
}

// TestConformance32 runs the registry over 32-bit corpora: the key width
// is part of the contract (4-byte slots change layouts and packings).
func TestConformance32(t *testing.T) {
	for _, c := range corpora32(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, be := range Registry[uint32]() {
				be := be
				t.Run(be.Name, func(t *testing.T) {
					if reason := be.Applicable(c.keys); reason != "" {
						t.Skipf("N/A: %s", reason)
					}
					ix, err := be.Build(c.keys)
					if err != nil {
						t.Fatalf("Build: %v", err)
					}
					conform(t, ix, c.keys, rand.New(rand.NewSource(22)))
				})
			}
		})
	}
}

// findRange answers a range query through ix the way the paper does
// (§1): the lower bound of a, then the lower bound of b+1 as the scan's
// end.
func findRange[K kv.Key](ix Index[K], a, b K) (first, last int) {
	if b < a {
		return 0, 0
	}
	first = ix.Find(a)
	if b == kv.MaxKey[K]() {
		return first, ix.Len()
	}
	return first, ix.Find(b + 1)
}
