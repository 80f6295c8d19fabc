package index

import "testing"

// CheckIdentical exposes checkIdentical to the external tests of this
// directory, which can import the packages that register kinds here.
func CheckIdentical(t *testing.T, label string, a, b Index[uint64], keys []uint64, probes int) {
	t.Helper()
	checkIdentical(t, label, a, b, keys, probes)
}
