//go:build !race

package concurrent

const raceEnabled = false
