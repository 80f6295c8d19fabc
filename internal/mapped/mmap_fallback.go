//go:build nommap || (!linux && !darwin)

package mapped

import (
	"io"
	"os"
)

// Supported reports whether this build maps files for real. This is the
// fallback build: files are read onto the heap behind the same API, so
// every mapped code path runs (and is tested) on platforms without mmap
// — only the zero-copy and page-cache wins are absent.
func Supported() bool { return false }

// mapFile reads the file onto the heap, into a MakeHuge buffer: the
// tables this build serves view their keys and layer in place. Page-
// aligning the buffer is not required: views only need element-size
// alignment, which the allocator provides for large buffers, and View
// verifies it anyway.
func mapFile(f *os.File, size int) ([]byte, bool, error) {
	data := MakeHuge[byte](size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

func unmap(data []byte, real bool) {}
