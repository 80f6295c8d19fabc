//go:build linux && !nommap

package mapped

import "syscall"

// OSFaults returns the process's cumulative minor and major page fault
// counts, which /statusz reports.
func OSFaults() (minor, major int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	// The Rusage fields are int32 on 32-bit targets.
	return int64(ru.Minflt), int64(ru.Majflt)
}
