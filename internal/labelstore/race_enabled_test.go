//go:build race

package labelstore

// raceEnabled reports whether the race detector is on: the writer
// differential then runs on smaller graphs, which still span several
// chunks of workers.
const raceEnabled = true
