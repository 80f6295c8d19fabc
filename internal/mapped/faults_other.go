//go:build !linux || nommap

package mapped

// OSFaults is unavailable off linux; callers treat zeros as "no counter".
func OSFaults() (minor, major int64) { return 0, 0 }
