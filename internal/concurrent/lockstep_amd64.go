package concurrent

// haveKernel reports whether this CPU runs lockstepKernel: AVX-512F with
// the opmask and ZMM state enabled by the OS, checked once at init.
var haveKernel = kernelSupported()

// lockstepKernel is one lockstep halving round over lanes [0, n), eight
// lanes per instruction (lockstep_amd64.s). It reads without bounds
// checks: call it only through lockstepRound.
//
//go:noescape
func lockstepKernel(run, q []uint64, pos []int, n, half int)

func kernelSupported() bool
