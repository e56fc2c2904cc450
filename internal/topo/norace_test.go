//go:build !race

package topo_test

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
