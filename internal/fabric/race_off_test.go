//go:build !race

package fabric

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops a share of Puts, so allocation ceilings
// that rely on warm pools are not checked there.
const raceEnabled = false
