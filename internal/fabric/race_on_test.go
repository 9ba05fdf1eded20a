//go:build race

package fabric

// raceEnabled: see race_off_test.go.
const raceEnabled = true
