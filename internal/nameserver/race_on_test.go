//go:build race

package nameserver

// raceEnabled reports whether the race detector is on. Its pointer checks
// slow reflection-heavy, single-goroutine tests about tenfold, so the
// differential oracle runs a quarter of its steps under -race.
const raceEnabled = true
