//go:build linux

package mapped

import (
	"syscall"
	"unsafe"
)

// hugePage is the transparent huge page size the advice aligns to: the
// PMD size of x86 and of 4 KiB-page arm64. Where the kernel's huge page
// is another size the advice still covers whole 2 MiB spans; it is a
// hint either way.
const hugePage = 2 << 20

// MakeHuge returns make([]T, n) with the 2 MiB-aligned interior of its
// backing array advised MADV_DONTNEED and then MADV_HUGEPAGE, before the
// caller's first write (DESIGN.md §8). The Go heap never asks for huge
// pages, so without the advice every dependent miss into a large key run
// or layer is also a TLB miss and a 4 KiB page walk. The DONTNEED step
// comes first because make has already zeroed a recycled span, and so
// faulted it in as 4 KiB pages that the huge-page advice alone would
// leave in place; dropping them keeps the contents zero, and the first
// write then faults the span in as huge pages. A failed or ignored
// madvise changes nothing but speed, so errors are dropped. Arrays
// shorter than two huge pages may have no aligned interior, and then
// (like an empty one) make no system call.
func MakeHuge[T fixedInt](n int) []T {
	s := make([]T, n)
	base := unsafe.Pointer(unsafe.SliceData(s))
	start := uintptr(base)
	end := start + uintptr(n)*unsafe.Sizeof(s[0])
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := end &^ (hugePage - 1)
	if hi <= lo {
		return s
	}
	interior := unsafe.Slice((*byte)(unsafe.Add(base, lo-start)), hi-lo)
	_ = syscall.Madvise(interior, syscall.MADV_DONTNEED)
	_ = syscall.Madvise(interior, syscall.MADV_HUGEPAGE)
	return s
}
