//go:build !linux

package main

import "time"

// sleepFor falls back to the runtime timer where nanosleep(2) is not in
// package syscall; pacing is then only as tight as time.Sleep.
func sleepFor(d time.Duration) { time.Sleep(d) }

// cpuTime is unavailable without getrusage(2); cpu_us_per_op reads 0.
func cpuTime() time.Duration { return 0 }

func fsType(string) string { return "unknown" }
