//go:build race

package core

// raceEnabled reports whether the race detector is on; it perturbs
// sync.Pool reuse, so allocation-count assertions are skipped under it.
const raceEnabled = true
