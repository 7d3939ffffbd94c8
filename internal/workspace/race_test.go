//go:build race

package workspace

// raceEnabled reports whether the race detector is on; it makes sync.Pool
// drop a share of Puts on purpose, so reuse assertions relax under it.
const raceEnabled = true
