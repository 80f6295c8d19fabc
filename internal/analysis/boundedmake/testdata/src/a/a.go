package a

import (
	"encoding/binary"
	"io"
	"slices"
)

func Unbounded(b []byte) []int {
	n := binary.LittleEndian.Uint64(b)
	return make([]int, n) // want `make sized by an integer decoded from untrusted input`
}

// Bounded checks the decoded length against an in-memory bound first:
// sanitized, no finding.
func Bounded(b []byte, avail int64) []int {
	n := binary.LittleEndian.Uint64(b)
	if int64(n) > avail {
		return nil
	}
	return make([]int, n)
}

// LenBounded clamps through the min builtin: untainted, no finding.
func LenBounded(b []byte) []byte {
	n := binary.LittleEndian.Uint64(b)
	m := min(int(n), len(b))
	return make([]byte, m)
}

// Derived taint flows through arithmetic and conversions.
func Derived(b []byte) []byte {
	n := binary.LittleEndian.Uint32(b)
	total := int(n) * 8
	return make([]byte, total) // want `make sized by an integer decoded from untrusted input`
}

type header struct {
	Count uint64
}

// DecodedHeader taints the whole struct through binary.Read.
func DecodedHeader(r io.Reader) ([]byte, error) {
	var h header
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	return make([]byte, h.Count), nil // want `make sized by an integer decoded from untrusted input`
}

func Grown(b []byte, s []int) []int {
	n := binary.LittleEndian.Uint64(b)
	return slices.Grow(s, int(n)) // want `slices\.Grow sized by an integer decoded from untrusted input`
}

func UnboundedReadFull(r io.Reader, b, buf []byte) error {
	n := binary.LittleEndian.Uint32(b)
	_, err := io.ReadFull(r, buf[:n]) // want `io\.ReadFull into a slice bounded by an untrusted decoded length`
	return err
}

func Waived(b []byte) []int {
	n := binary.LittleEndian.Uint64(b)
	//shift:allow-unbounded(fixture: bounded to 0..7 by construction)
	return make([]int, n)
}

func BadWaiver(b []byte) []int {
	n := binary.LittleEndian.Uint64(b)
	/* want `shift:allow-unbounded waiver is missing its mandatory \(reason\)` */ //shift:allow-unbounded
	return make([]int, n)
}

// Untainted sizes are fine.
func Clean(n int) []int {
	return make([]int, n)
}
