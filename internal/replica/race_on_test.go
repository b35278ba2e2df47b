//go:build race

package replica

// raceEnabled reports whether the race detector is on, which changes the heap.
const raceEnabled = true
