//go:build !race

package service

// raceSlowdown scales wall-clock bounds; 1 without the race detector.
const raceSlowdown = 1
