//go:build race

package service

// raceSlowdown scales wall-clock bounds: race-instrumented engines run
// an order of magnitude slower.
const raceSlowdown = 10
