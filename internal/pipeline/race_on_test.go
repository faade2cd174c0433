//go:build race

package pipeline

// raceEnabled reports a -race build, in which a simulation runs about 15
// times slower.
const raceEnabled = true
