//go:build race

package concurrent

// raceEnabled reports that the race detector is active; allocation
// counts then measure the detector, not the read path.
const raceEnabled = true
