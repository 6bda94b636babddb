//go:build race

package httpapi

// raceEnabled reports a -race build, whose allocation counts run high.
const raceEnabled = true
