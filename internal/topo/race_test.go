//go:build race

package topo_test

// raceEnabled reports that this binary was built with -race. The race
// detector's instrumentation allocates on its own, so allocation gates
// skip themselves under it (the plain CI test job still enforces them).
const raceEnabled = true
