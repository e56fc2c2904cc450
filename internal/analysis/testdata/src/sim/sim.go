// Package sim is a determinism fixture: its import-path base matches a
// trace-affecting package, so every rule of the determinism analyzer
// applies. The want comments pin the exact diagnostics.
package sim

import (
	"math/rand"
	"time"
)

// Sched stands in for the engine's scheduling surface.
type Sched struct{}

func (s *Sched) Schedule(k int) {}

func badClock() {
	_ = time.Now() // want "time.Now in trace-affecting package sim"
}

func okClock() {
	_ = time.Now() //fabriclint:wallclock feeds a latency gauge only, never event order
}

func badRand() int {
	return rand.Intn(10) // want "process-global random source"
}

func goodRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func badSweep(s *Sched, m map[int]int) {
	for k := range m { // want "map iteration order flows into Schedule"
		s.Schedule(k)
	}
}

func okReduce(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v // order-independent: reductions commute
	}
	return total
}

func okSorted(s *Sched, keys []int) {
	for _, k := range keys {
		s.Schedule(k)
	}
}

func badSpawn() {
	go func() {}() // want "goroutine spawned in trace-affecting code"
}

func okSpawn() {
	//fabriclint:nondeterministic joins before any event executes; cannot reorder the trace
	go func() {}()
}
