//go:build !race

package engine

// raceEnabled reports whether the race detector instruments the build.
const raceEnabled = false
