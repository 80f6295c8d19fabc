package mapped

import (
	"runtime"
	"testing"
)

// TestMakeHugeZeroedAndWritable checks the helper at lengths on both
// sides of the 2 MiB huge page: each slice has the asked length, reads
// zero although the span may be a recycled, dirty one (the advice drops
// pages make has already zeroed), and keeps what is written to it.
func TestMakeHugeZeroedAndWritable(t *testing.T) {
	const mib = 1 << 20
	for _, n := range []int{0, 1, 2*mib - 1, 2*mib + 1, 5 * mib} {
		// Leave dirty garbage behind for the allocator to recycle.
		dirty := make([]byte, n)
		for i := range dirty {
			dirty[i] = 0xa5
		}
		runtime.GC()

		s := MakeHuge[byte](n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(s), cap(s))
		}
		for i, b := range s {
			if b != 0 {
				t.Fatalf("n=%d: byte %d reads %#x, want 0", n, i, b)
			}
		}
		for i := range s {
			s[i] = byte(i*7 + 3)
		}
		for i, b := range s {
			if b != byte(i*7+3) {
				t.Fatalf("n=%d: byte %d reads %#x after the write, want %#x", n, i, b, byte(i*7+3))
			}
		}
	}

	words := MakeHuge[uint64](5 * mib / 8)
	for i := range words {
		if words[i] != 0 {
			t.Fatalf("word %d reads %#x, want 0", i, words[i])
		}
		words[i] = ^uint64(i)
	}
	for i, w := range words {
		if w != ^uint64(i) {
			t.Fatalf("word %d reads %#x after the write", i, w)
		}
	}
}
