package concurrent

import (
	"math/rand"
	"testing"
	"time"

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

// TestSequentialMatchesReference drives a single-goroutine workload against
// the reference multiset while the background compactor races it for real:
// compaction must be semantically invisible, so every read matches the
// oracle no matter when the snapshot swap lands.
func TestSequentialMatchesReference(t *testing.T) {
	initial := dataset.MustGenerate(dataset.Face, 64, 3_000, 3)
	ix, err := New(initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ref := &reference{keys: append([]uint64(nil), initial...)}
	domain := initial[len(initial)-1] + 1000
	rng := rand.New(rand.NewSource(11))

	for op := 0; op < 8_000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert (possibly duplicate)
			var k uint64
			if rng.Intn(3) == 0 && len(ref.keys) > 0 {
				k = ref.keys[rng.Intn(len(ref.keys))]
			} else {
				k = rng.Uint64() % domain
			}
			ix.Insert(k)
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
			wantFound := want < len(ref.keys) && ref.keys[want] == q
			if rank, found := ix.Lookup(q); found != wantFound || rank != want {
				t.Fatalf("op %d: Lookup(%d) = (%d,%v), want (%d,%v)", op, q, rank, found, want, wantFound)
			}
		}
		if ix.Len() != len(ref.keys) {
			t.Fatalf("op %d: Len = %d, want %d", op, ix.Len(), len(ref.keys))
		}
	}
	if err := ix.Err(); err != nil {
		t.Fatal(err)
	}
	// On a single CPU the compactor may only get scheduled once the write
	// loop yields; give it a moment before asserting it ran.
	deadline := time.Now().Add(5 * time.Second)
	for ix.Rebuilds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ix.Rebuilds() == 0 {
		t.Error("expected at least one background compaction during the workload")
	}

	// Quiesce and verify the full live multiset survives one more rebuild.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	ix.Scan(0, ^uint64(0), func(k uint64) bool { got = append(got, k); return true })
	if len(got) != len(ref.keys) {
		t.Fatalf("full scan returned %d keys, want %d", len(got), len(ref.keys))
	}
	for i := range got {
		if got[i] != ref.keys[i] {
			t.Fatalf("scan mismatch at %d: %d want %d", i, got[i], ref.keys[i])
		}
	}
	if p := ix.Pending(); p != 0 {
		t.Errorf("pending after quiescent compaction = %d, want 0", p)
	}
}

// TestBatchMatchesScalar checks FindBatch against scalar Find, and Lookup
// against the batch ranks, on a quiescent index (a storm-time batch uses
// one snapshot, so batch-vs-scalar equivalence is only defined when no
// writes interleave).
func TestBatchMatchesScalar(t *testing.T) {
	initial := dataset.MustGenerate(dataset.Osmc, 64, 4_000, 5)
	ix, err := New(initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	rng := rand.New(rand.NewSource(9))
	domain := initial[len(initial)-1] + 500
	for i := 0; i < 2_000; i++ {
		if rng.Intn(3) == 0 {
			ix.Delete(rng.Uint64() % domain)
		} else {
			ix.Insert(rng.Uint64() % domain)
		}
	}
	qs := make([]uint64, 1500)
	for i := range qs {
		qs[i] = rng.Uint64() % (domain + 10)
	}
	out := ix.FindBatch(qs, nil)
	for i, q := range qs {
		if want := ix.Find(q); out[i] != want {
			t.Fatalf("batch rank for %d = %d, scalar %d", q, out[i], want)
		}
		if r, _ := ix.Lookup(q); r != out[i] {
			t.Fatalf("Lookup rank for %d = %d, batch %d", q, r, out[i])
		}
	}
}

// TestClosedIndexNeverAutoCompacts: an index closed right after New
// rebuilds only on explicit Compact calls, however far past the rule its
// writes go.
func TestClosedIndexNeverAutoCompacts(t *testing.T) {
	ix, err := New([]uint64{1, 2, 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	for i := 0; i < 3_000; i++ {
		ix.Insert(uint64(i))
	}
	time.Sleep(10 * time.Millisecond)
	if ix.Rebuilds() != 0 {
		t.Fatalf("closed index auto-compacted %d times", ix.Rebuilds())
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Rebuilds() != 1 || ix.Pending() != 0 {
		t.Fatalf("manual Compact: rebuilds=%d pending=%d", ix.Rebuilds(), ix.Pending())
	}
}

func TestBackgroundCompactionFires(t *testing.T) {
	ix, err := New([]uint64{10, 20, 30}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < 2_000; i++ { // past the rule's floor of one write head
		ix.Insert(uint64(i * 7))
	}
	deadline := time.Now().Add(5 * time.Second)
	for ix.Rebuilds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ix.Rebuilds() == 0 {
		t.Fatal("background compactor never fired")
	}
	if err := ix.Err(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != 2_003 {
		t.Fatalf("Len = %d, want 2003", got)
	}
}

// TestCompactionDue pins the one background rule: pending writes at
// max(maxHeadLen, live/64).
func TestCompactionDue(t *testing.T) {
	cases := []struct {
		pending, live int
		want          bool
	}{
		{1023, 100, false},         // below the floor
		{1024, 100, true},          // floor reached
		{31_249, 2_000_000, false}, // below live/64
		{31_250, 2_000_000, true},  // live/64 reached
	}
	for _, c := range cases {
		if got := due(c.pending, c.live); got != c.want {
			t.Errorf("due(%d, %d) = %v, want %v", c.pending, c.live, got, c.want)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	ix, err := New[uint64](nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if got := ix.Find(5); got != 0 {
		t.Errorf("empty Find = %d, want 0", got)
	}
	if _, found := ix.Lookup(5); found {
		t.Error("empty Lookup must not find")
	}
	if ix.Delete(5) {
		t.Error("Delete on empty must fail")
	}
	ix.Scan(0, ^uint64(0), func(uint64) bool { t.Fatal("empty scan must not visit"); return false })
	for i := 0; i < 20; i++ {
		ix.Insert(uint64(i * 3))
	}
	for q := uint64(0); q < 60; q++ {
		want := int((q + 2) / 3)
		if got := ix.Find(q); got != want {
			t.Fatalf("Find(%d) = %d, want %d", q, got, want)
		}
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 20 {
		t.Errorf("Len after compaction = %d, want 20", ix.Len())
	}
}

func TestScanContract(t *testing.T) {
	ix, err := New([]uint64{10, 20, 30, 40, 50}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.Insert(25)
	ix.Insert(25)
	ix.Delete(30)
	ix.Delete(25)

	var got []uint64
	ix.Scan(10, 50, func(k uint64) bool { got = append(got, k); return true })
	want := []uint64{10, 20, 25, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	ix.Scan(0, ^uint64(0), func(uint64) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early-stop scan visited %d, want 2", count)
	}
	// Inverted range.
	ix.Scan(50, 10, func(uint64) bool { t.Fatal("inverted range must not visit"); return false })
}

// TestModeMidpointLayer runs the concurrent wrapper over an S-mode base.
func TestModeMidpointLayer(t *testing.T) {
	initial := dataset.MustGenerate(dataset.LogN, 64, 3_000, 5)
	ix, err := New(initial, Config{
		Layer: core.Config{Mode: core.ModeMidpoint},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ref := &reference{keys: append([]uint64(nil), initial...)}
	rng := rand.New(rand.NewSource(21))
	domain := initial[len(initial)-1] + 2
	for i := 0; i < 2_000; i++ {
		k := rng.Uint64() % domain
		ix.Insert(k)
		ref.insert(k)
		q := rng.Uint64() % domain
		if got, want := ix.Find(q), kv.LowerBound(ref.keys, q); got != want {
			t.Fatalf("midpoint Find(%d) = %d, want %d", q, got, want)
		}
	}
	// The writes passed the rule, so a midpoint-mode rebuild serves now.
	waitForRebuild(t, ix)
	for q := uint64(0); q < domain; q += domain / 500 {
		if got, want := ix.Find(q), kv.LowerBound(ref.keys, q); got != want {
			t.Fatalf("rebuilt midpoint Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	ix, err := New([]uint64{1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ix.Close()
	// Reads and writes stay valid after Close.
	ix.Insert(2)
	if got := ix.Len(); got != 2 {
		t.Fatalf("Len after Close = %d, want 2", got)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestScanMatchesReference: with no compaction, scans merge the base with
// a sealed run and the write head — inserts, duplicates, and tombstones
// of base keys and of pending inserts — exactly like a sorted multiset.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	initial := dataset.MustGenerate(dataset.Wiki, 64, 3_000, 3)
	ix, err := New(initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // explicit compactions only: exercise the merge path
	ref := &reference{keys: append([]uint64(nil), initial...)}
	for i := 0; i < 2_000; i++ {
		k := initial[0] + uint64(rng.Intn(1_000_000))
		if rng.Intn(2) == 0 {
			ix.Insert(k)
			ref.insert(k)
		} else if len(ref.keys) > 0 {
			k = ref.keys[rng.Intn(len(ref.keys))]
			ix.Delete(k)
			ref.delete(k)
		}
	}
	if ix.Published().Gens() != 2 {
		t.Fatalf("%d generations, want a sealed run and the head", ix.Published().Gens())
	}
	for trial := 0; trial < 200; trial++ {
		a := ref.keys[rng.Intn(len(ref.keys))]
		b := a + uint64(rng.Intn(100_000))
		var got []uint64
		ix.Scan(a, b, func(k uint64) bool {
			got = append(got, k)
			return true
		})
		want := ref.keys[kv.LowerBound(ref.keys, a):kv.UpperBound(ref.keys, b)]
		if len(got) != len(want) {
			t.Fatalf("Scan(%d,%d) returned %d keys, want %d", a, b, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Scan mismatch at %d: %d want %d", i, got[i], want[i])
			}
		}
	}
}

// compacted compacts ix by hand and checks it holds exactly want, with
// nothing pending.
func compacted(t *testing.T, ix *Index[uint64], want []uint64) {
	t.Helper()
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Rebuilds() != 1 || ix.Pending() != 0 || ix.Len() != len(want) {
		t.Fatalf("after Compact: rebuilds=%d pending=%d len=%d, want 1, 0, %d", ix.Rebuilds(), ix.Pending(), ix.Len(), len(want))
	}
	got := []uint64{}
	ix.Scan(0, ^uint64(0), func(k uint64) bool { got = append(got, k); return true })
	if len(got) != len(want) {
		t.Fatalf("post-compaction scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-compaction scan = %v, want %v", got, want)
		}
	}
}

func TestCompactZeroDeltas(t *testing.T) {
	ix, err := New([]uint64{10, 20, 20, 30}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	compacted(t, ix, []uint64{10, 20, 20, 30})
	for q, want := range map[uint64]int{5: 0, 10: 0, 15: 1, 20: 1, 21: 3, 30: 3, 31: 4} {
		if got := ix.Find(q); got != want {
			t.Errorf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestCompactDeleteOnlyDeltas(t *testing.T) {
	ix, err := New([]uint64{10, 20, 20, 30, 40}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	// Tombstone one duplicate and one singleton; no inserts at all.
	if !ix.Delete(20) || !ix.Delete(40) {
		t.Fatal("deletes of live base keys must succeed")
	}
	if ix.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 tombstones", ix.Pending())
	}
	compacted(t, ix, []uint64{10, 20, 30})
	if _, found := ix.Lookup(40); found {
		t.Error("deleted key 40 still found after compaction")
	}
}

func TestCompactTombstoneEveryBaseKey(t *testing.T) {
	initial := []uint64{5, 10, 10, 15}
	ix, err := New(initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	for _, k := range initial {
		if !ix.Delete(k) {
			t.Fatalf("Delete(%d) of live key failed", k)
		}
	}
	if ix.Len() != 0 || ix.Delete(10) {
		t.Fatalf("all keys tombstoned: Len = %d, or a fifth delete succeeded", ix.Len())
	}
	compacted(t, ix, []uint64{})
	if got := ix.Find(10); got != 0 {
		t.Errorf("Find on emptied index = %d, want 0", got)
	}
	// The emptied index must come back to life.
	ix.Insert(7)
	if rank, found := ix.Lookup(7); rank != 0 || !found {
		t.Errorf("Lookup(7) after revival = (%d,%v), want (0,true)", rank, found)
	}
}
