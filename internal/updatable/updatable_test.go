package updatable

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kv"
)

// reference is a naive sorted multiset used as the test oracle.
type reference struct{ keys []uint64 }

func (r *reference) insert(k uint64) {
	i := kv.UpperBound(r.keys, k)
	r.keys = append(r.keys, k)
	copy(r.keys[i+1:], r.keys[i:])
	r.keys[i] = k
}

func (r *reference) delete(k uint64) bool {
	i := kv.LowerBound(r.keys, k)
	if i >= len(r.keys) || r.keys[i] != k {
		return false
	}
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	return true
}

func TestRandomisedOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	initial := dataset.MustGenerate(dataset.Face, 64, 5_000, 3)
	ix, err := New(initial, Config{MaxDelta: 512})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{keys: append([]uint64(nil), initial...)}
	domain := initial[len(initial)-1] + 1000

	for op := 0; op < 20_000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert (possibly duplicate)
			var k uint64
			if rng.Intn(3) == 0 && len(ref.keys) > 0 {
				k = ref.keys[rng.Intn(len(ref.keys))] // duplicate
			} else {
				k = rng.Uint64() % domain
			}
			if err := ix.Insert(k); err != nil {
				t.Fatal(err)
			}
			ref.insert(k)
		case 4, 5, 6: // delete
			var k uint64
			if rng.Intn(2) == 0 && len(ref.keys) > 0 {
				k = ref.keys[rng.Intn(len(ref.keys))]
			} else {
				k = rng.Uint64() % domain
			}
			if got, want := ix.Delete(k), ref.delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
		default: // query
			q := rng.Uint64() % domain
			want := kv.LowerBound(ref.keys, q)
			if got := ix.Find(q); got != want {
				t.Fatalf("op %d: Find(%d) = %d, want %d", op, q, got, want)
			}
			_, foundWant := func() (int, bool) {
				i := kv.LowerBound(ref.keys, q)
				return i, i < len(ref.keys) && ref.keys[i] == q
			}()
			if _, found := ix.Lookup(q); found != foundWant {
				t.Fatalf("op %d: Lookup(%d) found=%v, want %v", op, q, found, foundWant)
			}
		}
		if ix.Len() != len(ref.keys) {
			t.Fatalf("op %d: Len = %d, want %d", op, ix.Len(), len(ref.keys))
		}
	}
	if ix.Rebuilds() == 0 {
		t.Error("expected at least one compaction during the workload")
	}
}

func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	initial := dataset.MustGenerate(dataset.Wiki, 64, 3_000, 3)
	ix, err := New(initial, Config{MaxDelta: 100_000}) // no compaction: exercise merge path
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{keys: append([]uint64(nil), initial...)}
	for i := 0; i < 2_000; i++ {
		k := initial[0] + uint64(rng.Intn(1_000_000))
		if rng.Intn(2) == 0 {
			_ = ix.Insert(k)
			ref.insert(k)
		} else if len(ref.keys) > 0 {
			k = ref.keys[rng.Intn(len(ref.keys))]
			ix.Delete(k)
			ref.delete(k)
		}
	}
	for trial := 0; trial < 200; trial++ {
		a := ref.keys[rng.Intn(len(ref.keys))]
		b := a + uint64(rng.Intn(100_000))
		var got []uint64
		ix.Scan(a, b, func(k uint64) bool {
			got = append(got, k)
			return true
		})
		lo := kv.LowerBound(ref.keys, a)
		hi := kv.UpperBound(ref.keys, b)
		want := ref.keys[lo:hi]
		if len(got) != len(want) {
			t.Fatalf("Scan(%d,%d) returned %d keys, want %d", a, b, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Scan mismatch at %d: %d want %d", i, got[i], want[i])
			}
		}
	}
	// Early-stop contract.
	count := 0
	ix.Scan(0, ^uint64(0), func(uint64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early-stop scan visited %d keys, want 10", count)
	}
	// Inverted range is empty.
	ix.Scan(100, 50, func(uint64) bool { t.Fatal("inverted range must not visit"); return false })
}

func TestCompactionThreshold(t *testing.T) {
	ix, err := New([]uint64{10, 20, 30}, Config{MaxDelta: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ix.Insert(uint64(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Rebuilds() != 0 {
		t.Fatal("compaction fired early")
	}
	if err := ix.Insert(103); err != nil {
		t.Fatal(err)
	}
	if ix.Rebuilds() != 1 || ix.DeltaLen() != 0 {
		t.Fatalf("compaction should fire at MaxDelta: rebuilds=%d delta=%d", ix.Rebuilds(), ix.DeltaLen())
	}
	s := ix.Stats()
	if s.Live != 7 || s.Tombstones != 0 || s.BaseLen != 7 {
		t.Errorf("post-compaction stats wrong: %+v", s)
	}
}

func TestEmptyStart(t *testing.T) {
	ix, err := New[uint64](nil, Config{MaxDelta: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Find(5); got != 0 {
		t.Errorf("empty Find = %d, want 0", got)
	}
	if ix.Delete(5) {
		t.Error("Delete on empty should fail")
	}
	for i := 0; i < 20; i++ {
		if err := ix.Insert(uint64(i * 3)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 20 {
		t.Errorf("Len = %d, want 20", ix.Len())
	}
	for q := uint64(0); q < 60; q++ {
		want := int((q + 2) / 3)
		if got := ix.Find(q); got != want {
			t.Fatalf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestCompactZeroDeltas(t *testing.T) {
	initial := []uint64{10, 20, 20, 30}
	ix, err := New(initial, Config{MaxDelta: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Live != 4 || s.BaseLen != 4 || s.Tombstones != 0 || s.DeltaLen != 0 || s.Rebuilds != 1 {
		t.Fatalf("no-op compaction stats wrong: %+v", s)
	}
	for q, want := range map[uint64]int{5: 0, 10: 0, 15: 1, 20: 1, 21: 3, 30: 3, 31: 4} {
		if got := ix.Find(q); got != want {
			t.Errorf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestCompactDeleteOnlyDeltas(t *testing.T) {
	initial := []uint64{10, 20, 20, 30, 40}
	ix, err := New(initial, Config{MaxDelta: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone one duplicate and one singleton; no inserts at all.
	if !ix.Delete(20) || !ix.Delete(40) {
		t.Fatal("deletes of live base keys must succeed")
	}
	if s := ix.Stats(); s.Tombstones != 2 || s.DeltaLen != 0 {
		t.Fatalf("pre-compaction stats wrong: %+v", s)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Live != 3 || s.BaseLen != 3 || s.Tombstones != 0 {
		t.Fatalf("delete-only compaction stats wrong: %+v", s)
	}
	var got []uint64
	ix.Scan(0, ^uint64(0), func(k uint64) bool { got = append(got, k); return true })
	want := []uint64{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("post-compaction scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-compaction scan = %v, want %v", got, want)
		}
	}
	if _, found := ix.Lookup(40); found {
		t.Error("deleted key 40 still found after compaction")
	}
}

func TestCompactTombstoneEveryBaseKey(t *testing.T) {
	initial := []uint64{5, 10, 10, 15}
	ix, err := New(initial, Config{MaxDelta: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range initial {
		if !ix.Delete(k) {
			t.Fatalf("Delete(%d) of live key failed", k)
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len with all keys tombstoned = %d, want 0", ix.Len())
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Live != 0 || s.BaseLen != 0 || s.Tombstones != 0 {
		t.Fatalf("all-tombstone compaction stats wrong: %+v", s)
	}
	if got := ix.Find(10); got != 0 {
		t.Errorf("Find on emptied index = %d, want 0", got)
	}
	// The emptied index must come back to life.
	if err := ix.Insert(7); err != nil {
		t.Fatal(err)
	}
	if rank, found := ix.Lookup(7); rank != 0 || !found {
		t.Errorf("Lookup(7) after revival = (%d,%v), want (0,true)", rank, found)
	}
}

// TestFreezeCopyOnWrite pins the snapshot contract internal/concurrent is
// built on: a frozen view shares state with the index without copying, and
// later index writes — including tombstones, which mutate the Fenwick tree
// in place on the unfrozen path — never reach it.
func TestFreezeCopyOnWrite(t *testing.T) {
	initial := []uint64{10, 20, 30, 40}
	ix, err := New(initial, Config{MaxDelta: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(25); err != nil {
		t.Fatal(err)
	}
	v := ix.Freeze()
	if got := v.Len(); got != 5 {
		t.Fatalf("frozen Len = %d, want 5", got)
	}

	// Mutate the index in every way: insert, delete (delta and base),
	// compact.
	if err := ix.Insert(35); err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(25) || !ix.Delete(10) {
		t.Fatal("deletes after freeze must succeed")
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}

	// The index moved on...
	if got := ix.Len(); got != 4 {
		t.Fatalf("index Len after writes = %d, want 4", got)
	}
	if _, found := ix.Lookup(10); found {
		t.Error("index still finds deleted key 10")
	}
	// ...the frozen view did not.
	if got := v.Len(); got != 5 {
		t.Fatalf("frozen Len after index writes = %d, want 5", got)
	}
	for q, want := range map[uint64]int{10: 0, 25: 2, 30: 3, 41: 5} {
		if got := v.Find(q); got != want {
			t.Errorf("frozen Find(%d) = %d, want %d", q, got, want)
		}
	}
	if _, found := v.Lookup(25); !found {
		t.Error("frozen view lost key 25")
	}
	var got []uint64
	v.Scan(0, ^uint64(0), func(k uint64) bool { got = append(got, k); return true })
	want := []uint64{10, 20, 25, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("frozen Scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frozen Scan = %v, want %v", got, want)
		}
	}
}

// noTombstoneState fails unless v holds no tombstone bitmap, tree or count.
func noTombstoneState(t *testing.T, what string, v *View[uint64]) {
	t.Helper()
	if v.dead != nil || v.delTree != nil || v.deadCount != 0 {
		t.Fatalf("%s: tombstone state present (bitmap %d slots, tree %v, count %d)",
			what, len(v.dead), v.delTree != nil, v.deadCount)
	}
}

// answersLike fails unless v's Find, Lookup and Scan agree with the sorted
// live multiset keys over the queries qs.
func answersLike(t *testing.T, what string, v *View[uint64], keys, qs []uint64) {
	t.Helper()
	for _, q := range qs {
		want := kv.LowerBound(keys, q)
		wantFound := want < len(keys) && keys[want] == q
		if got := v.Find(q); got != want {
			t.Fatalf("%s: Find(%d) = %d, want %d", what, q, got, want)
		}
		if rank, found := v.Lookup(q); rank != want || found != wantFound {
			t.Fatalf("%s: Lookup(%d) = (%d,%v), want (%d,%v)", what, q, rank, found, want, wantFound)
		}
	}
	var scanned []uint64
	v.Scan(0, ^uint64(0), func(k uint64) bool { scanned = append(scanned, k); return true })
	if len(scanned) != len(keys) {
		t.Fatalf("%s: Scan visited %d keys, want %d", what, len(scanned), len(keys))
	}
	for i := range scanned {
		if scanned[i] != keys[i] {
			t.Fatalf("%s: scan[%d] = %d, want %d", what, i, scanned[i], keys[i])
		}
	}
}

// TestLazyTombstoneLifecycle pins when tombstone state exists: not on a
// fresh or compacted base, not after a delete the insert buffer absorbs,
// and from the first base delete on. Each delete after a Freeze works on a
// detached copy, so a view frozen before the first base delete stays
// tombstone-free, and one frozen after it keeps exactly its tombstones.
func TestLazyTombstoneLifecycle(t *testing.T) {
	initial := dataset.MustGenerate(dataset.Face, 64, 3_000, 5)
	ix, err := New(initial, Config{MaxDelta: 1 << 20}) // compact by hand only
	if err != nil {
		t.Fatal(err)
	}
	v := ix.View()
	noTombstoneState(t, "New", v)
	layerBytes := v.table.SizeBytes() + v.table.Model().SizeBytes()
	if got := ix.SizeBytes(); got != layerBytes {
		t.Fatalf("fresh SizeBytes = %d, want table+model %d", got, layerBytes)
	}

	ref := &reference{keys: append([]uint64(nil), initial...)}
	rng := rand.New(rand.NewSource(13))
	// A delete that an insert-buffer occurrence absorbs — even of a key
	// the base also holds — tombstones nothing.
	for i := 0; i < 50; i++ {
		k := initial[rng.Intn(len(initial))]
		if err := ix.Insert(k); err != nil {
			t.Fatal(err)
		}
		if !ix.Delete(k) {
			t.Fatalf("Delete(%d) of a just-inserted key failed", k)
		}
	}
	noTombstoneState(t, "delta-only Delete", ix.View())

	qs := make([]uint64, 2_000)
	for i := range qs {
		qs[i] = initial[rng.Intn(len(initial))] + uint64(i%2)
	}
	deleteSome := func() {
		t.Helper()
		for i := 0; i < 300; i++ {
			k := initial[rng.Intn(len(initial))]
			if got, want := ix.Delete(k), ref.delete(k); got != want {
				t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
			}
			if v := ix.View(); v.dead == nil || v.delTree == nil || v.deadCount == 0 {
				t.Fatalf("after a base Delete: bitmap %d slots, tree %v, count %d",
					len(v.dead), v.delTree != nil, v.deadCount)
			}
		}
	}

	frozen, frozenKeys := ix.Freeze(), append([]uint64(nil), ref.keys...)
	deleteSome()
	noTombstoneState(t, "view frozen before the first base Delete", frozen)
	answersLike(t, "view frozen before the first base Delete", frozen, frozenKeys, qs)
	answersLike(t, "tombstoned index", ix.View(), ref.keys, qs)
	if got, want := ix.SizeBytes(), layerBytes+len(initial)+8*(len(initial)+1); got != want {
		t.Fatalf("tombstoned SizeBytes = %d, want %d", got, want)
	}

	frozen, frozenKeys = ix.Freeze(), append([]uint64(nil), ref.keys...)
	deleteSome()
	answersLike(t, "view frozen with tombstones", frozen, frozenKeys, qs)
	answersLike(t, "index after more deletes", ix.View(), ref.keys, qs)

	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	noTombstoneState(t, "Compact", ix.View())
	answersLike(t, "compacted index", ix.View(), ref.keys, qs)
}

func TestErrors(t *testing.T) {
	if _, err := New([]uint64{2, 1}, Config{}); err == nil {
		t.Error("want error for unsorted keys")
	}
	if _, err := New([]uint64{1}, Config{MaxDelta: -1}); err == nil {
		t.Error("want error for negative MaxDelta")
	}
}

func TestWithMidpointLayer(t *testing.T) {
	initial := dataset.MustGenerate(dataset.Osmc, 64, 4_000, 3)
	ix, err := New(initial, Config{MaxDelta: 256, Layer: core.Config{Mode: core.ModeMidpoint}})
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]uint64(nil), initial...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2_000; i++ {
		q := rng.Uint64() % (ref[len(ref)-1] + 2)
		if got, want := ix.Find(q), kv.LowerBound(ref, q); got != want {
			t.Fatalf("midpoint-layer Find(%d) = %d, want %d", q, got, want)
		}
	}
}
