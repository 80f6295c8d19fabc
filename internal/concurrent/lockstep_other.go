//go:build !amd64

package concurrent

// haveKernel is false off amd64: the Go round takes every lane.
const haveKernel = false

func lockstepKernel(run, q []uint64, pos []int, n, half int) {
	panic("concurrent: no lockstep kernel on this architecture")
}
