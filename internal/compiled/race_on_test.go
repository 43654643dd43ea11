//go:build race

package compiled

// raceEnabled reports whether the race detector instruments the build.
const raceEnabled = true
