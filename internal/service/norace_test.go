//go:build !race

package service

// raceEnabled reports a -race build, whose allocation counts run high.
const raceEnabled = false
