package kv

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLowerBoundSmall(t *testing.T) {
	keys := []uint64{2, 4, 4, 4, 9, 12}
	cases := []struct {
		q    uint64
		want int
	}{
		{0, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 4}, {9, 4}, {10, 5}, {12, 5}, {13, 6},
	}
	for _, c := range cases {
		if got := LowerBound(keys, c.q); got != c.want {
			t.Errorf("LowerBound(%d) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestUpperBoundSmall(t *testing.T) {
	keys := []uint64{2, 4, 4, 4, 9, 12}
	cases := []struct {
		q    uint64
		want int
	}{
		{0, 0}, {2, 1}, {3, 1}, {4, 4}, {5, 4}, {9, 5}, {12, 6}, {13, 6},
	}
	for _, c := range cases {
		if got := UpperBound(keys, c.q); got != c.want {
			t.Errorf("UpperBound(%d) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestBoundsEmpty(t *testing.T) {
	var keys []uint64
	if got := LowerBound(keys, 5); got != 0 {
		t.Errorf("LowerBound on empty = %d, want 0", got)
	}
	if got := UpperBound(keys, 5); got != 0 {
		t.Errorf("UpperBound on empty = %d, want 0", got)
	}
}

func TestLowerBoundMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(100))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for q := uint64(0); q <= 101; q++ {
			want := sort.Search(n, func(i int) bool { return keys[i] >= q })
			if got := LowerBound(keys, q); got != want {
				t.Fatalf("n=%d q=%d: got %d want %d", n, q, got, want)
			}
		}
	}
}

func TestLowerBoundQuick32(t *testing.T) {
	f := func(vals []uint32, q uint32) bool {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		want := sort.Search(len(vals), func(i int) bool { return vals[i] >= q })
		return LowerBound(vals, q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFirstOccurrence(t *testing.T) {
	keys := []uint64{1, 1, 2, 5, 5, 5, 9}
	want := []int{0, 0, 2, 3, 3, 3, 6}
	got := FirstOccurrence(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FirstOccurrence[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFirstOccurrenceProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pos := FirstOccurrence(vals)
		for i, p := range pos {
			// p must be the lower bound of vals[i].
			if p != LowerBound(vals, vals[i]) {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDedup(t *testing.T) {
	keys := []uint64{1, 1, 2, 5, 5, 5, 9}
	got := Dedup(keys)
	want := []uint64{1, 2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Dedup len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Dedup[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if Dedup([]uint64(nil)) != nil {
		t.Error("Dedup(nil) should be nil")
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]uint64{1, 2, 2, 3}) {
		t.Error("sorted slice reported unsorted")
	}
	if IsSorted([]uint64{2, 1}) {
		t.Error("unsorted slice reported sorted")
	}
	if !IsSorted([]uint64{}) {
		t.Error("empty slice should be sorted")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp misbehaves")
	}
}
