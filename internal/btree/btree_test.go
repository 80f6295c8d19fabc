package btree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
)

func collect(t *Tree[uint64]) (keys []uint64, vals []uint64) {
	for it := t.Min(); it.Valid(); it.Next() {
		keys = append(keys, it.Key())
		vals = append(vals, it.Value())
	}
	return keys, vals
}

func TestBulkLoadAndLowerBound(t *testing.T) {
	for _, fanout := range []int{3, 4, 16, 64} {
		for _, name := range []dataset.Name{dataset.Face, dataset.Wiki, dataset.LogN} {
			keys := dataset.MustGenerate(name, 64, 3000, 7)
			tr, err := NewBulk(keys, nil, fanout)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 1000; i++ {
				var q uint64
				if i%2 == 0 {
					q = keys[rng.Intn(len(keys))]
				} else {
					q = rng.Uint64() % (keys[len(keys)-1] + 3)
				}
				want := kv.LowerBound(keys, q)
				it := tr.LowerBound(q)
				if want == len(keys) {
					if it.Valid() {
						t.Fatalf("%s fanout=%d: LowerBound(%d) should be exhausted", name, fanout, q)
					}
					continue
				}
				if !it.Valid() || it.Value() != uint64(want) {
					t.Fatalf("%s fanout=%d: LowerBound(%d) = %v/%d, want pos %d",
						name, fanout, q, it.Valid(), it.Value(), want)
				}
			}
		}
	}
}

func TestOrderedIteration(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 64, 2000, 3)
	tr, err := NewBulk(keys, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, vals := collect(tr)
	if len(got) != len(keys) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(keys))
	}
	for i := range got {
		if got[i] != keys[i] || vals[i] != uint64(i) {
			t.Fatalf("iteration mismatch at %d: (%d,%d) want (%d,%d)", i, got[i], vals[i], keys[i], i)
		}
	}
}

func TestInsertRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := New[uint64](4)
	if err != nil {
		t.Fatal(err)
	}
	var ref []uint64
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(500)) // force duplicates
		tr.Insert(k, uint64(i))
		ref = append(ref, k)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	got, _ := collect(tr)
	if len(got) != len(ref) {
		t.Fatalf("size %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sorted order broken at %d: %d want %d", i, got[i], ref[i])
		}
	}
	// Lower bounds across the whole domain.
	for q := uint64(0); q <= 501; q++ {
		want := kv.LowerBound(ref, q)
		it := tr.LowerBound(q)
		if want == len(ref) {
			if it.Valid() {
				t.Fatalf("LowerBound(%d) should be exhausted", q)
			}
			continue
		}
		if !it.Valid() || it.Key() != ref[want] {
			t.Fatalf("LowerBound(%d): got valid=%v key=%v, want key %d", q, it.Valid(), it.Key(), ref[want])
		}
	}
}

func TestGet(t *testing.T) {
	keys := []uint64{10, 20, 30, 40, 50}
	tr, _ := NewBulk(keys, []uint64{100, 200, 300, 400, 500}, 3)
	for i, k := range keys {
		v, ok := tr.Get(k)
		if !ok || v != uint64((i+1)*100) {
			t.Errorf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, (i+1)*100)
		}
	}
	if _, ok := tr.Get(25); ok {
		t.Error("Get(absent) should miss")
	}
	if _, ok := tr.Get(5); ok {
		t.Error("Get(below min) should miss")
	}
	if _, ok := tr.Get(99); ok {
		t.Error("Get(above max) should miss")
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, _ := New[uint64](4)
	present := map[uint64]int{}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(300))
		tr.Insert(k, uint64(i))
		present[k]++
	}
	// Delete everything in random order.
	var all []uint64
	for k, c := range present {
		for j := 0; j < c; j++ {
			all = append(all, k)
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, k := range all {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) failed with %d copies remaining", k, present[k])
		}
		present[k]--
	}
	if tr.Len() != 0 {
		t.Fatalf("tree should be empty, Len = %d", tr.Len())
	}
	if tr.Delete(7) {
		t.Error("Delete on empty tree should report false")
	}
	// The tree remains usable after emptying.
	tr.Insert(42, 1)
	if v, ok := tr.Get(42); !ok || v != 1 {
		t.Error("tree broken after empty/refill cycle")
	}
}

func TestDeleteKeepsSearchable(t *testing.T) {
	tr, _ := New[uint64](3)
	for i := 0; i < 500; i++ {
		tr.Insert(uint64(i*2), uint64(i))
	}
	// Remove every fourth key and validate lower bounds continuously.
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(uint64(i * 2)) {
			t.Fatalf("Delete(%d) failed", i*2)
		}
	}
	for q := uint64(0); q < 1000; q += 3 {
		it := tr.LowerBound(q)
		// Reference: remaining keys are {2k : k odd, k < 500}.
		var want uint64
		found := false
		for k := 0; k < 500; k++ {
			if k%2 == 1 && uint64(k*2) >= q {
				want = uint64(k * 2)
				found = true
				break
			}
		}
		if !found {
			if it.Valid() {
				t.Fatalf("LowerBound(%d) should be exhausted, got %d", q, it.Key())
			}
			continue
		}
		if !it.Valid() || it.Key() != want {
			t.Fatalf("LowerBound(%d) = %v, want %d", q, it.Key(), want)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := New[uint64](2); err == nil {
		t.Error("want error for fanout < 3")
	}
	if _, err := NewBulk([]uint64{2, 1}, nil, 0); err == nil {
		t.Error("want error for unsorted keys")
	}
	if _, err := NewBulk([]uint64{1, 2}, []uint64{9}, 0); err == nil {
		t.Error("want error for mismatched values")
	}
}

func TestEmptyAndTiny(t *testing.T) {
	tr, err := NewBulk([]uint64{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it := tr.LowerBound(5); it.Valid() {
		t.Error("empty tree iterator should be invalid")
	}
	if tr.SizeBytes() != 0 {
		t.Error("empty tree should have zero size")
	}
	tr, _ = NewBulk([]uint64{9}, nil, 0)
	if it := tr.LowerBound(9); !it.Valid() || it.Key() != 9 {
		t.Error("single-key lower bound broken")
	}
	if tr.height != 1 {
		t.Errorf("single-leaf height = %d, want 1", tr.height)
	}
}

func TestHeightAndSizeScale(t *testing.T) {
	keys := dataset.MustGenerate(dataset.USpr, 64, 10000, 3)
	small, _ := NewBulk(keys, nil, 4)
	large, _ := NewBulk(keys, nil, 128)
	if small.height <= large.height {
		t.Errorf("fanout 4 height %d should exceed fanout 128 height %d", small.height, large.height)
	}
	if small.SizeBytes() <= 0 || large.SizeBytes() <= 0 {
		t.Error("size accounting broken")
	}
	if small.fanout != 4 || large.fanout != 128 {
		t.Error("fanout not recorded")
	}
}

func TestUint32Tree(t *testing.T) {
	keys := dataset.U32(dataset.MustGenerate(dataset.Amzn, 32, 2000, 3))
	tr, err := NewBulk(keys, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		q := uint32(rng.Uint64())
		want := kv.LowerBound(keys, q)
		it := tr.LowerBound(q)
		if want == len(keys) {
			if it.Valid() {
				t.Fatalf("LowerBound(%d) should be exhausted", q)
			}
			continue
		}
		if !it.Valid() || it.Value() != uint64(want) {
			t.Fatalf("uint32 LowerBound(%d) wrong", q)
		}
	}
}
