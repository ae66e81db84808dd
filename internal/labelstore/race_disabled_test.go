//go:build !race

package labelstore

// raceEnabled reports whether the race detector is on; see the race
// variant.
const raceEnabled = false
