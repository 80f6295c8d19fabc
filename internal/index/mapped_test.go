package index

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/search"
)

// TestMappedEqualsHeapRegistry is the mapped ≡ heap property test over
// every Persister-capable registry backend: the v2 file loaded through
// the mapped open and through the verified heap load must be
// bit-identical to the original under the scalar, batch, and traced
// query paths — the traced comparison checks the probe sequences too,
// so a mapped layer that answered right by a different (wider) search
// would still fail.
func TestMappedEqualsHeapRegistry(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Osmc, 64, 25_000, 4)
	dir := t.TempDir()
	for _, name := range persistableBackends {
		orig, err := Build(name, keys)
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		path := filepath.Join(dir, name+".v2.snap")
		if err := SaveFile(path, orig); err != nil {
			t.Fatalf("saving %s: %v", name, err)
		}
		heap, err := LoadFile[uint64](path)
		if err != nil {
			t.Fatalf("heap-loading %s: %v", name, err)
		}
		mm, err := LoadFileMapped[uint64](path)
		if err != nil {
			t.Fatalf("map-loading %s: %v", name, err)
		}
		if !mm.(interface{ Mapped() bool }).Mapped() {
			t.Fatalf("%s: v2 snapshot did not open mapped", name)
		}
		// Scalar + batch, each restored index against the original.
		checkIdentical(t, name+"/heap", orig, heap, keys, 3_000)
		checkIdentical(t, name+"/mapped", orig, mm, keys, 3_000)
		checkTracesIdentical(t, name, orig, mm, keys)
	}
}

// checkTracesIdentical compares the instrumented lookup between two
// indexes: same rank and the same probe sequence shape (count and word
// widths). Absolute addresses are incomparable — a heap layer and its
// keys are separate allocations while a mapped layer shares one region —
// but an identical width sequence pins the search to the same path
// through the same structures, so a mapped layer that answered right by
// a different (wider) search would still fail.
func checkTracesIdentical(t *testing.T, name string, a, b Index[uint64], keys []uint64) {
	t.Helper()
	ta, tb := TraceFindFn(a), TraceFindFn(b)
	if (ta == nil) != (tb == nil) {
		t.Fatalf("%s: tracer capability mismatch (orig %v, mapped %v)", name, ta != nil, tb != nil)
	}
	if ta == nil {
		return
	}
	collect := func(fn func(q uint64, touch search.Touch) int, q uint64) (int, []int) {
		var widths []int
		r := fn(q, func(addr uint64, width int) {
			widths = append(widths, width)
		})
		return r, widths
	}
	qs := []uint64{0, keys[0], keys[len(keys)/3], keys[len(keys)-1], keys[len(keys)/2] + 1, ^uint64(0)}
	for _, q := range qs {
		ra, pa := collect(ta, q)
		rb, pb := collect(tb, q)
		if ra != rb {
			t.Fatalf("%s: traced Find(%d) = %d mapped, %d orig", name, q, rb, ra)
		}
		if len(pa) != len(pb) {
			t.Fatalf("%s: traced Find(%d) touched %d words mapped, %d orig", name, q, len(pb), len(pa))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: traced Find(%d) probe %d is %d bytes mapped, %d orig", name, q, i, pb[i], pa[i])
			}
		}
	}
}
