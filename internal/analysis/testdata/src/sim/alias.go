package sim

import clock "time"

// The wall-clock rule matches the function, not the name its package is
// imported under.
func aliasedClock() {
	_ = clock.Now() // want "time.Now reads the wall clock"
}
