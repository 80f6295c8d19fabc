package mapped

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pageSize is the v2 snapshot layout's alignment unit (snapshot's
// pageAlign): the file sizes these tests map.
const pageSize = 4096

// writeRegionFile writes n bytes where byte i is the low byte of i —
// recognisable content for view checks.
func writeRegionFile(t *testing.T, n int) string {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	path := filepath.Join(t.TempDir(), "region.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegionLifetimeAndPathRegistry(t *testing.T) {
	path := writeRegionFile(t, 3*pageSize)
	if PathInUse(path) {
		t.Fatal("path in use before any mapping")
	}
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3*pageSize || r.refs.Load() != 1 {
		t.Fatalf("Len=%d Refs=%d after Map", r.Len(), r.refs.Load())
	}
	if r.Mapped() != Supported() {
		t.Fatalf("Mapped()=%v with Supported()=%v", r.Mapped(), Supported())
	}
	if !PathInUse(path) {
		t.Fatal("mapped path not registered")
	}
	if got := r.Bytes()[pageSize+5]; got != byte((pageSize+5)%256) {
		t.Fatalf("byte %d is %d", pageSize+5, got)
	}

	// A second independent mapping keeps the path pinned until both die.
	r2, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Retain()
	r.Release()
	r.Release() // r's count reaches zero
	if !PathInUse(path) {
		t.Fatal("path unregistered while a second region is live")
	}
	r2.Release()
	if PathInUse(path) {
		t.Fatal("path still registered after the last release")
	}
}

func TestMapRejectsEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(empty); err == nil {
		t.Error("mapped an empty file")
	}
	if _, err := Map(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("mapped a missing file")
	}
}

func TestViewAlignmentAndSize(t *testing.T) {
	buf := make([]byte, 64)
	for i := range buf {
		binary.LittleEndian.PutUint16(buf[i&^1:], uint16(i&^1))
	}
	v, err := View[uint64](buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 8 || v[1] != binary.LittleEndian.Uint64(buf[8:]) {
		t.Fatalf("view = %d elems, v[1] = %#x", len(v), v[1])
	}
	if _, err := View[uint64](buf[:60]); err == nil {
		t.Error("accepted a length that is not a whole number of elements")
	}
	if _, err := View[uint64](buf[1:57]); err == nil {
		t.Error("accepted a misaligned base")
	}
	if v, err := View[uint32](nil); err != nil || v != nil {
		t.Errorf("empty view = (%v, %v), want (nil, nil)", v, err)
	}
}

// TestMapRefusesConcurrentResize closes the stat→mmap TOCTOU window: a
// file whose size changes between the initial stat and the mapping must
// be refused, never returned as a region whose length disagrees with
// the bytes on disk (a shrink would turn later faults into SIGBUS).
func TestMapRefusesConcurrentResize(t *testing.T) {
	for _, dir := range []struct {
		name   string
		resize func(path string, t *testing.T)
	}{
		{"truncated", func(path string, t *testing.T) {
			if err := os.Truncate(path, pageSize); err != nil {
				t.Fatal(err)
			}
		}},
		{"grown", func(path string, t *testing.T) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(make([]byte, pageSize)); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	} {
		t.Run(dir.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "region.bin")
			if err := os.WriteFile(path, make([]byte, 3*pageSize), 0o644); err != nil {
				t.Fatal(err)
			}
			testHookBeforeMap = func(p string) { dir.resize(path, t) }
			defer func() { testHookBeforeMap = nil }()
			r, err := Map(path)
			if err == nil {
				r.Release()
				t.Fatal("Map returned a region over a concurrently-resized file")
			}
			if !strings.Contains(err.Error(), "changed size") {
				t.Fatalf("refusal does not name the race: %v", err)
			}
			// The path must not be left registered by the aborted map.
			if PathInUse(path) {
				t.Fatal("aborted Map left the path registered")
			}
			// And with the writer gone the same path maps cleanly.
			testHookBeforeMap = nil
			r, err = Map(path)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		})
	}
}
