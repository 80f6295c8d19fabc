// Package mapped provides the memory-mapped region type behind zero-copy
// snapshot serving (DESIGN.md §12): a refcounted read-only byte region
// backed by mmap where the platform supports it and by a plain heap read
// where it does not, typed in-place views over the region's bytes, the
// process's page-fault counters, and MakeHuge, which backs the heap
// arrays a served table's lookups read with transparent huge pages
// (DESIGN.md §8).
//
// # Lifetime protocol
//
// A Region starts with one reference, owned by whoever mapped it. Every
// long-lived structure that aliases the region's bytes (a mapped
// core.Table, a mapped concurrent view) takes its own reference with Retain and
// arranges Release when it becomes unreachable (runtime.AddCleanup). The
// munmap happens only when the count reaches zero, so a snapshot swap
// cannot yank pages from under an in-flight query wave: readers reach
// mapped bytes only through a table they hold, the table holds its
// reference until collected, and collection cannot precede the last read.
//
// A global registry tracks which file paths currently back live regions
// (PathInUse), so the replica's artifact GC can skip files a served table
// still maps — deleting a mapped file would not free the pages (POSIX
// keeps them until munmap) but would break the next warm restart and,
// on some filesystems, strand unreclaimable space.
//
// # Platform matrix
//
// linux and darwin get real mmap through the syscall package; everything
// else — and any platform built with -tags nommap — gets a fallback that
// reads the file into an anonymous heap buffer behind the same API, so
// the mapped code paths stay exercised (and correct) everywhere while
// only the supported platforms get the zero-copy and page-cache wins.
// Supported reports which build is active.
package mapped

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Region is a refcounted read-only byte region over a file.
type Region struct {
	data []byte
	path string // absolute, "" for anonymous regions
	real bool   // true when backed by mmap, false for the heap fallback
	refs atomic.Int64
}

// Map opens path and maps it read-only (or, in the fallback build, reads
// it onto the heap). The returned region holds one reference, owned by
// the caller; Release it when done.
func Map(path string) (*Region, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = filepath.Clean(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapped: opening %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mapped: stat %s: %w", path, err)
	}
	if st.Size() == 0 {
		return nil, fmt.Errorf("mapped: %s is empty", path)
	}
	if st.Size() > int64(maxInt) {
		return nil, fmt.Errorf("mapped: %s is %d bytes, larger than the address space", path, st.Size())
	}
	if testHookBeforeMap != nil {
		testHookBeforeMap(path)
	}
	data, real, mapErr := mapFile(f, int(st.Size()))
	// Re-stat through the same still-open fd and refuse if the size moved
	// between the stat and the mapping (a writer truncating or appending
	// concurrently). Without this check a shrunk file turns later page
	// faults into SIGBUS — a crash the verifier can never catch, because
	// every byte currently mapped still checksums clean. The check comes
	// before mapFile's own error: the heap fallback's read of a shrunk
	// file comes up short, and the resize is the cause to report.
	st2, statErr := f.Stat()
	if statErr == nil && st2.Size() != st.Size() {
		unmap(data, real)
		return nil, fmt.Errorf("mapped: %s changed size from %d to %d bytes while being mapped (concurrent writer)",
			path, st.Size(), st2.Size())
	}
	if mapErr != nil {
		return nil, fmt.Errorf("mapped: mapping %s: %w", path, mapErr)
	}
	if statErr != nil {
		unmap(data, real)
		return nil, fmt.Errorf("mapped: re-stat %s: %w", path, statErr)
	}
	r := &Region{data: data, path: abs, real: real}
	r.refs.Store(1)
	registerPath(abs)
	return r, nil
}

// Bytes returns the region's contents. The slice aliases the mapping; it
// must not be written to and must not outlive the last reference.
func (r *Region) Bytes() []byte { return r.data }

// Len returns the region size in bytes.
func (r *Region) Len() int { return len(r.data) }

// Path returns the absolute path of the backing file ("" when anonymous).
func (r *Region) Path() string { return r.path }

// Mapped reports whether the region is a real mmap (false in the heap
// fallback build, where the bytes are an ordinary allocation).
func (r *Region) Mapped() bool { return r.real }

// Retain adds a reference. Every Retain must be paired with a Release.
func (r *Region) Retain() {
	if r.refs.Add(1) <= 1 {
		panic("mapped: Retain on a released region")
	}
}

// Release drops one reference; the last one unmaps the region and clears
// its path registration. Releasing more times than retained panics —
// that is a lifetime bug, not a recoverable condition.
func (r *Region) Release() {
	n := r.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("mapped: Release without a matching reference")
	}
	unregisterPath(r.path)
	data := r.data
	r.data = nil
	unmap(data, r.real)
}

// pathRegistry counts live regions per backing file, so artifact GC can
// ask PathInUse before deleting a snapshot file.
var (
	pathMu       sync.Mutex
	pathRegistry = map[string]int{}
)

func registerPath(p string) {
	if p == "" {
		return
	}
	pathMu.Lock()
	pathRegistry[p]++
	pathMu.Unlock()
}

func unregisterPath(p string) {
	if p == "" {
		return
	}
	pathMu.Lock()
	if pathRegistry[p]--; pathRegistry[p] <= 0 {
		delete(pathRegistry, p)
	}
	pathMu.Unlock()
}

// PathInUse reports whether any live region currently maps path. The
// replica GC consults it before unlinking an artifact: a served table
// may still be reading those pages.
func PathInUse(path string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = filepath.Clean(path)
	}
	pathMu.Lock()
	n := pathRegistry[abs]
	pathMu.Unlock()
	return n > 0
}

const maxInt = int(^uint(0) >> 1)

// testHookBeforeMap, when set by a test, runs between the size stat and
// the mapping — the window the re-stat check closes.
var testHookBeforeMap func(path string)

// hostLittleEndian reports the byte order views require: the v2 layout
// stores all integers little-endian, and an in-place view is only a
// reinterpretation — on a big-endian host every multi-byte read would be
// byte-swapped, so View refuses and the load fails with its error.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// fixedInt lists the element types MakeHuge allocates: fixed-width
// integers, so the advised memory holds no pointers.
type fixedInt interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// View reinterprets b in place as a slice of T: no copy, no allocation.
// It requires b's length to be a multiple of T's size, b's base address
// to be aligned for T, and a little-endian host; any violation returns an
// error instead of serving garbage.
func View[T ~int8 | ~int16 | ~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64](b []byte) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if !hostLittleEndian {
		return nil, fmt.Errorf("mapped: in-place views need a little-endian host")
	}
	if len(b)%size != 0 {
		return nil, fmt.Errorf("mapped: %d bytes is not a whole number of %d-byte elements", len(b), size)
	}
	if len(b) == 0 {
		return nil, nil
	}
	if addr := uintptr(unsafe.Pointer(&b[0])); addr%uintptr(size) != 0 {
		return nil, fmt.Errorf("mapped: view base %#x is not %d-byte aligned", addr, size)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size), nil
}
