package updatable

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kv"
)

// answersLike fails unless v's scalar reads agree with the sorted keys at
// every query in qs: Find is the lower bound, Count the multiplicity, and
// LookupCount both at once.
func answersLike(t *testing.T, what string, v *View[uint64], keys, qs []uint64) {
	t.Helper()
	if v.Len() != len(keys) {
		t.Fatalf("%s: Len = %d, want %d", what, v.Len(), len(keys))
	}
	for _, q := range qs {
		want := kv.LowerBound(keys, q)
		wantCount := kv.UpperBound(keys, q) - want
		if got := v.Find(q); got != want {
			t.Fatalf("%s: Find(%d) = %d, want %d", what, q, got, want)
		}
		if got := v.Count(q); got != wantCount {
			t.Fatalf("%s: Count(%d) = %d, want %d", what, q, got, wantCount)
		}
		if rank, count := v.LookupCount(q); rank != want || count != wantCount {
			t.Fatalf("%s: LookupCount(%d) = (%d,%d), want (%d,%d)", what, q, rank, count, want, wantCount)
		}
	}
}

// probesFor mixes hits, near-misses and both ends of the key space.
func probesFor(keys []uint64, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	qs := []uint64{0, ^uint64(0)}
	for len(qs) < n {
		if len(keys) == 0 {
			qs = append(qs, rng.Uint64())
			continue
		}
		qs = append(qs, keys[rng.Intn(len(keys))]+uint64(rng.Intn(3))-1)
	}
	return qs
}

// TestNewCopiesKeys: New builds over its own copy of the keys, while
// NewFrom — the compaction rebuild — serves the caller's slice itself.
func TestNewCopiesKeys(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2_000, 3)
	orig := append([]uint64(nil), keys...)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if &ix.View().Keys()[0] == &keys[0] {
		t.Fatal("New serves the caller's slice; want a copy")
	}
	keys[0] = keys[1] + 1 // unsorts the caller's slice, not the view
	answersLike(t, "New after the caller wrote its slice", ix.View(), orig, probesFor(orig, 500, 4))

	owned := append([]uint64(nil), orig...)
	next, err := NewFrom(owned, Config{}, ix.View().Table())
	if err != nil {
		t.Fatal(err)
	}
	if &next.View().Keys()[0] != &owned[0] {
		t.Fatal("NewFrom copied its keys; want the caller's slice")
	}
	answersLike(t, "NewFrom", next.View(), orig, probesFor(orig, 500, 5))
}

func TestEmptyStart(t *testing.T) {
	ix, err := New[uint64](nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	answersLike(t, "empty", ix.View(), nil, []uint64{0, 5, ^uint64(0)})
	next, err := NewFrom([]uint64{3, 3, 9}, Config{}, ix.View().Table())
	if err != nil {
		t.Fatal(err)
	}
	answersLike(t, "rebuilt from empty", next.View(), []uint64{3, 3, 9}, []uint64{0, 3, 4, 9, 10})
}

func TestErrors(t *testing.T) {
	if _, err := New([]uint64{2, 1}, Config{}); err == nil {
		t.Error("want error for unsorted keys")
	}
	if _, err := NewFrom([]uint64{2, 1}, Config{}, nil); err == nil {
		t.Error("want error for unsorted keys")
	}
}

func TestWithMidpointLayer(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 4_000, 3)
	ix, err := New(keys, Config{Layer: core.Config{Mode: core.ModeMidpoint}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Config().Layer.Mode; got != core.ModeMidpoint {
		t.Fatalf("Config().Layer.Mode = %v, want midpoint", got)
	}
	answersLike(t, "midpoint layer", ix.View(), keys, probesFor(keys, 2_000, 4))
}

// TestRandomisedOpsAgainstReference: a chain of NewFrom rebuilds — what
// compaction does — each over the previous keys with a random batch of
// inserts (duplicates included) and deletes applied, and each drawing on
// its predecessor's pools, answers every query like the reference
// multiset, while the predecessors it replaced still answer as before.
func TestRandomisedOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := dataset.MustGenerate(dataset.Face, 64, 5_000, 3)
	domain := keys[len(keys)-1] + 1000
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	type built struct {
		ix   *Index[uint64]
		keys []uint64
	}
	var chain []built
	for round := 0; round < 12; round++ {
		next := slices.Clone(ix.View().Keys())
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 || len(next) == 0 {
				k := rng.Uint64() % domain
				if rng.Intn(3) == 0 && len(next) > 0 {
					k = next[rng.Intn(len(next))] // duplicate
				}
				next = slices.Insert(next, kv.UpperBound(next, k), k)
			} else {
				i := rng.Intn(len(next))
				next = slices.Delete(next, i, i+1)
			}
		}
		chain = append(chain, built{ix, slices.Clone(ix.View().Keys())})
		if ix, err = NewFrom(slices.Clone(next), ix.Config(), ix.View().Table()); err != nil {
			t.Fatal(err)
		}
		answersLike(t, "rebuilt", ix.View(), next, probesFor(next, 1_000, int64(round)))
	}
	for i, b := range chain {
		answersLike(t, "predecessor", b.ix.View(), b.keys, probesFor(b.keys, 300, int64(i)))
	}
}
