//go:build !race

package nameserver

const raceEnabled = false
