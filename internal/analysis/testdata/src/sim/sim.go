// Package sim is a determinism fixture: its import-path base matches a
// trace-affecting package, so every rule of the determinism analyzer
// applies. The want comments pin the exact diagnostics.
package sim

import (
	"math/rand"
	"runtime"
	"time"
)

// Sched stands in for the engine's scheduling surface.
type Sched struct{}

func (s *Sched) Schedule(k int) {}

func badClock(start time.Time) {
	_ = time.Now()         // want "time.Now reads the wall clock in package sim"
	_ = time.Since(start)  // want "time.Since reads the wall clock"
	_ = time.Until(start)  // want "time.Until reads the wall clock"
	clock := time.Now      // want "time.Now reads the wall clock"
	_ = start.After(start) // a method on a value already read: not a clock read
	_ = clock
}

func badProfile() {
	runtime.SetMutexProfileFraction(1) // want "runtime.SetMutexProfileFraction reads the wall clock"
	runtime.SetBlockProfileRate(1)     // want "runtime.SetBlockProfileRate reads the wall clock"
}

// No comment exempts a clock read; one naming any kind but
// nondeterministic is itself reported (the want rides inside it).
func noClockSuppression() {
	//fabriclint:clock feeds a latency gauge only // want "unknown suppression kind fabriclint:clock"
	_ = time.Now() // want "time.Now reads the wall clock"
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
