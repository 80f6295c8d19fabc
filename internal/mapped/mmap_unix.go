//go:build (linux || darwin) && !nommap

package mapped

import (
	"os"
	"syscall"
)

// Supported reports whether this build maps files for real. The fallback
// build answers false and reads files onto the heap behind the same API.
func Supported() bool { return true }

// mapFile maps size bytes of f read-only and shared — shared, not
// private, so the pages stay clean page-cache pages the kernel can drop
// and refault at will.
func mapFile(f *os.File, size int) ([]byte, bool, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func unmap(data []byte, real bool) {
	if !real || data == nil {
		return
	}
	// The slice may have been re-derived; Munmap wants the original
	// mapping, which data still heads.
	_ = syscall.Munmap(data)
}
