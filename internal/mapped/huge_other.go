//go:build !linux

package mapped

// MakeHuge is make([]T, n) off linux, which has no transparent huge
// pages to advise.
func MakeHuge[T fixedInt](n int) []T { return make([]T, n) }
