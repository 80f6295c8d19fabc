//go:build linux && !race

package concurrent

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
)

// TestBaseArraysAdvisedHuge checks that the arrays a served base's
// lookups read, its key run and its range layer, sit in virtual memory
// areas advised for transparent huge pages (VmFlags "hg" in
// /proc/self/smaps), after New and after a compaction rebuilds both. It
// tests the advice, not whether the kernel found free huge pages, so
// its answer does not depend on the machine's memory state. 3M face64
// keys give a 24 MB run and a 6 MB layer of 16-bit bounds: both have a
// 2 MiB-aligned interior to advise.
func TestBaseArraysAdvisedHuge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3M-key index")
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages are off or absent (%q, %v)", strings.TrimSpace(string(mode)), err)
	}
	keys := dataset.MustGenerate(dataset.Face, 64, 3_000_000, 5)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // compact only when asked

	checkAdvised := func(when string) {
		t.Helper()
		v := ix.snap.Load().view
		run := v.Keys()
		requireHugeAdvised(t, when+": key run", uintptr(unsafe.Pointer(&run[0])), uintptr(len(run))*8)
		var layer uintptr
		v.Table().TraceFind(run[0], func(addr uint64, _ int) {
			if layer == 0 {
				layer = uintptr(addr) // the first touch is layer entry 0
			}
		})
		requireHugeAdvised(t, when+": layer", layer, uintptr(v.Table().SizeBytes()))
	}
	checkAdvised("after New")

	before := ix.snap.Load().view
	for i := range 4096 {
		ix.Insert(keys[i*(len(keys)/4096)] + 1)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.snap.Load().view == before {
		t.Fatal("Compact did not rebuild the base")
	}
	checkAdvised("after Compact")
}

// requireHugeAdvised fails unless every VMA overlapping the 2 MiB-aligned
// interior of [start, start+size) carries VmFlags "hg" and together they
// cover it.
func requireHugeAdvised(t *testing.T, what string, start, size uintptr) {
	t.Helper()
	const huge = 2 << 20
	lo := (start + huge - 1) &^ (huge - 1)
	hi := (start + size) &^ (huge - 1)
	if hi <= lo {
		t.Fatalf("%s: %d bytes at %#x have no 2 MiB-aligned interior; the test needs a larger array", what, size, start)
	}
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	covered := lo // the interior is advised up to here
	var vmaLo, vmaHi uintptr
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var a, b uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x ", &a, &b); n == 2 { // a VMA's header line
			vmaLo, vmaHi = a, b
			continue
		}
		flags, ok := strings.CutPrefix(line, "VmFlags:")
		if !ok || vmaHi <= lo || vmaLo >= hi {
			continue
		}
		if !strings.Contains(" "+flags+" ", " hg ") {
			t.Fatalf("%s: VMA %#x-%#x over the interior %#x-%#x has VmFlags%s, no hg", what, vmaLo, vmaHi, lo, hi, flags)
		}
		if vmaLo <= covered && vmaHi > covered {
			covered = vmaHi
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if covered < hi {
		t.Fatalf("%s: the interior %#x-%#x is covered by hg VMAs only up to %#x", what, lo, hi, covered)
	}
}
