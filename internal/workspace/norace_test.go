//go:build !race

package workspace

const raceEnabled = false
