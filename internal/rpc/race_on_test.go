//go:build race

package rpc

// raceEnabled reports whether the race detector is on; its instrumentation
// allocates, so the alloc-ceiling test skips itself under -race.
const raceEnabled = true
