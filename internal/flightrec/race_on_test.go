//go:build race

package flightrec

// raceEnabled reports a -race build, in which a simulation runs about 15
// times slower.
const raceEnabled = true
