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
// identically to the original, and only the mapped one serves from a
// mapping (a heap-read region where the platform has no mmap). (Files
// earlier builds wrote are a migration input now: the repository root's
// TestV1Fixtures checks that every entry point refuses them and that
// their migrations answer like the recipes that made them.)
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
			load := index.LoadFile[uint64]
			if viaMapped {
				label = orig.Name() + "/mapped"
				load = index.LoadFileMapped[uint64]
			}
			ix, err := load(p2)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if c, ok := ix.(interface{ Close() }); ok {
				c.Close()
			}
			if got := ix.(interface{ Mapped() bool }).Mapped(); got != viaMapped {
				t.Fatalf("%s: Mapped() = %v, want %v", label, got, viaMapped)
			}
			index.CheckIdentical(t, label, orig, ix, keys, 3_000)
		}
	}
}
