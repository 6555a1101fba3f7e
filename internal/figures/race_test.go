//go:build race

package figures

// raceEnabled reports that the race detector is on: it instruments every
// allocation, so allocation bounds do not hold under it.
const raceEnabled = true
