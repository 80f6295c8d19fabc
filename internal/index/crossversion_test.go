package index_test

import (
	"path/filepath"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/index"
)

// TestCrossVersionRead saves an index of a core kind and a concurrent
// index with pending writes, and loads each v2 file through the heap
// load and the mapped open; every restored index must answer
// identically to the original, and the mapped open must report that it
// serves from the mapping (a heap-read region where the platform has no
// mmap). (The v1 half of the matrix
// — old files through both entry points — runs over the committed
// fixtures in the repository root's TestV1Fixtures.)
func TestCrossVersionRead(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 30_000, 9)
	shift, err := index.Build("IM+ST", keys)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conc.Close()
	for i := 0; i < 2_000; i++ {
		if i%4 == 3 {
			conc.Delete(keys[i*7])
		} else {
			conc.Insert(keys[(i*13)%len(keys)] + uint64(i%5))
		}
	}
	for _, orig := range []index.Index[uint64]{shift, conc} {
		p2 := filepath.Join(t.TempDir(), "v2.snap")
		if err := index.SaveFile(p2, orig); err != nil {
			t.Fatal(err)
		}
		for _, viaMapped := range []bool{false, true} {
			label := orig.Name() + "/heap"
			var ix index.Index[uint64]
			var viaMap bool
			var err error
			if viaMapped {
				label = orig.Name() + "/mapped"
				ix, viaMap, err = index.LoadFileMapped[uint64](p2)
			} else {
				ix, err = index.LoadFile[uint64](p2)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if c, ok := ix.(interface{ Close() }); ok {
				c.Close()
			}
			if viaMap != viaMapped {
				t.Fatalf("%s: viaMap = %v, want %v", label, viaMap, viaMapped)
			}
			index.CheckIdentical(t, label, orig, ix, keys, 3_000)
		}
	}
}
