//go:build !race

package flightrec

const raceEnabled = false
