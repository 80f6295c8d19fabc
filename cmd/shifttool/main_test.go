package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/migrate"
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

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	return string(out), ferr
}

// TestRunMigrate: -load of a full an earlier build wrote fails without
// -save, naming the migration (snapshot.ErrLegacy). With -save it writes
// the migration (internal/migrate) of the file: byte for byte what
// migrate.Full returns, loadable through the verified heap load and the
// mapped open, self-validated by shifttool's mapped load, and reproduced
// exactly by a load and a save. Covers every full under testdata/v1 (the
// registry kinds, the retired updatable kind, and the concurrent kind,
// which needs the concurrent loader linked), the updatable golden file
// and its v2-layer original, and the concurrent golden file's v2-layer
// original.
func TestRunMigrate(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join("..", "..", "testdata", "v1")
	for _, src := range []string{
		filepath.Join(v1, "shift-table.snap"),
		filepath.Join(v1, "model-index.snap"),
		filepath.Join(v1, "updatable.snap"),
		filepath.Join(v1, "concurrent.snap"),
		filepath.Join(v1, "store", "full-00000001.snap"),
		filepath.Join("..", "..", "internal", "updatable", "testdata", "tombstone-free.snap"),
		filepath.Join("..", "..", "internal", "updatable", "testdata", "tombstone-free-v2.snap"),
		filepath.Join("..", "..", "internal", "concurrent", "testdata", "golden-v2.snap"),
	} {
		name := filepath.Base(src)
		err := run("face64", 0, "im", "r", 0, "", 3, false, false, "", src, false)
		if !errors.Is(err, snapshot.ErrLegacy) || !strings.Contains(err.Error(), "shifttool -load OLD -save NEW") {
			t.Fatalf("%s: -load without -save: %v, want snapshot.ErrLegacy naming the migration", name, err)
		}
		dst := filepath.Join(dir, name)
		if err := run("face64", 0, "im", "r", 0, "", 3, false, false, dst, src, false); err != nil {
			t.Fatalf("%s: migrate: %v", name, err)
		}
		out, err := captureStdout(t, func() error {
			return run("face64", 0, "im", "r", 0, "", 3, false, false, "", dst, true)
		})
		if err != nil {
			t.Fatalf("%s: load migrated: %v", name, err)
		}
		if !regexp.MustCompile(`self-validation: \d+ strided lower-bound probes OK`).MatchString(out) {
			t.Fatalf("%s: load of the migrated file did not self-validate:\n%s", name, out)
		}
		legacy, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := migrate.Full(legacy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: shifttool wrote %d bytes, migrate.Full returns %d other bytes", name, len(got), len(want))
		}
		heap, err := index.LoadFile[uint64](dst)
		if err != nil {
			t.Fatalf("%s: heap load of the migrated file: %v", name, err)
		}
		mm, err := index.LoadFileMapped[uint64](dst)
		if err != nil || !mm.(interface{ Mapped() bool }).Mapped() {
			t.Fatalf("%s: mapped open of the migrated file: %v", name, err)
		}
		resaved := filepath.Join(dir, "resaved-"+name)
		if err := index.SaveFile(resaved, heap); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(resaved); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("%s: load and save of the migrated file differ from it (%v)", name, err)
		}
		for _, ix := range []index.Index[uint64]{heap, mm} {
			if c, ok := ix.(interface{ Close() }); ok {
				c.Close()
			}
		}
	}
}
