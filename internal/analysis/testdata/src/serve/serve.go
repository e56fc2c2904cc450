// Package serve stands in for the live daemon: the one package whose
// wall-clock reads (uptime, pacing, socket deadlines) the rule allows.
// It is trace-affecting, so rules 2–4 still hold.
package serve

import "time"

func uptime(start time.Time) (time.Time, time.Duration) {
	return time.Now(), time.Since(start)
}

func spawns() {
	//fabriclint:nondeterministic accepts connections; never touches the engine
	go func() {}()
	go func() {}() // want "goroutine spawned in trace-affecting code"
}
