package main

import (
	"errors"
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2). The runtime timer
// behind time.Sleep wakes through the netpoller, whose wait is rounded to
// whole milliseconds when every P is idle; on a 2-core VM that left paced
// sends 400–550 µs late at p50, while a blocking nanosleep wakes within
// tens of microseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		err := syscall.Nanosleep(&ts, &ts)
		if !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding path, from statfs(2)'s magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "unknown"
}
