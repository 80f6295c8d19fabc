package main

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/snapshot"
)

func TestRunGenerated(t *testing.T) {
	if err := run("face64", 20_000, "im", "r", 0, "", 3, false, false, "", "", false); err != nil {
		t.Fatal(err)
	}
	if err := run("wiki64", 20_000, "linear", "s", 500, "", 3, false, false, "", "", false); err != nil {
		t.Fatal(err)
	}
	if err := run("uspr32", 20_000, "rs", "r", 0, "", 3, false, false, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunRank(t *testing.T) {
	if err := run("uden64", 10_000, "im", "r", 0, "", 3, false, true, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.MustGenerate(dataset.Face, 64, 5_000, 3)
	path := filepath.Join(dir, "face64.bin")
	if err := dataset.Save(path, keys, 64); err != nil {
		t.Fatal(err)
	}
	if err := run("face64", 0, "im", "r", 0, path, 3, false, false, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("face64", 1000, "nope", "r", 0, "", 3, false, false, "", "", false); err == nil {
		t.Error("want error for unknown model")
	}
	if err := run("face64", 1000, "im", "x", 0, "", 3, false, false, "", "", false); err == nil {
		t.Error("want error for unknown mode")
	}
	if err := run("nope64", 1000, "im", "r", 0, "", 3, false, false, "", "", false); err == nil {
		t.Error("want error for unknown dataset")
	}
	if err := run("face64", 0, "im", "r", 0, "/does/not/exist.bin", 3, false, false, "", "", false); err == nil {
		t.Error("want error for missing file")
	}
}

func TestRunSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.snap")
	if err := run("face64", 20_000, "im", "r", 0, "", 3, false, false, path, "", false); err != nil {
		t.Fatal(err)
	}
	// The saved snapshot loads both onto the heap and mapped.
	for _, mmap := range []bool{false, true} {
		if err := run("face64", 0, "im", "r", 0, "", 3, false, false, "", path, mmap); err != nil {
			t.Fatalf("load (mmap=%v): %v", mmap, err)
		}
	}
	if m, err := snapshot.MapFile(path); err != nil {
		t.Fatalf("saved snapshot does not map: %v", err)
	} else {
		m.Close()
	}
	// Loading garbage must fail.
	bad := filepath.Join(dir, "bad.snap")
	if err := dataset.Save(bad, dataset.MustGenerate(dataset.Face, 64, 100, 1), 64); err != nil {
		t.Fatal(err)
	}
	if err := run("face64", 0, "im", "r", 0, "", 3, false, false, "", bad, false); err == nil {
		t.Error("want error loading a non-snapshot file")
	}
}

// TestRunMigrate: -load of a v1 snapshot an earlier build wrote, with
// -save, writes a v2 snapshot that maps and answers identically. Covers
// every registry kind the fixtures hold.
func TestRunMigrate(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"shift-table", "model-index", "router"} {
		src := filepath.Join("..", "..", "testdata", "v1", kind+".snap")
		dst := filepath.Join(dir, kind+".snap")
		if err := run("face64", 0, "im", "r", 0, "", 3, false, false, dst, src, false); err != nil {
			t.Fatalf("%s: migrate: %v", kind, err)
		}
		if err := run("face64", 0, "im", "r", 0, "", 3, false, false, "", dst, true); err != nil {
			t.Fatalf("%s: load migrated: %v", kind, err)
		}
		old, err := index.LoadFile[uint64](src)
		if err != nil {
			t.Fatal(err)
		}
		migrated, viaMap, err := index.LoadFileMapped[uint64](dst)
		if err != nil || !viaMap {
			t.Fatalf("%s: migrated snapshot: viaMap=%v err=%v", kind, viaMap, err)
		}
		for _, k := range old.(interface{ Keys() []uint64 }).Keys() {
			for _, q := range []uint64{k - 1, k, k + 1} {
				if got, want := migrated.Find(q), old.Find(q); got != want {
					t.Fatalf("%s: migrated Find(%d) = %d, v1 snapshot %d", kind, q, got, want)
				}
			}
		}
	}
}
