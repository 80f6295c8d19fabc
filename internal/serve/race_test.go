//go:build race

package serve

// raceEnabled reports that the race detector is active. Under it
// sync.Pool drops a random share of what is put back, so allocation
// counts measure the detector, not the handler.
const raceEnabled = true
