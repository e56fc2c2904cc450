// Package tool is outside the trace-affecting set, like a command or the
// SDK: the wall-clock rule holds here, and rules 2–4 do not.
package tool

import (
	"math/rand"
	"time"
)

type sched struct{}

func (s *sched) Schedule(k int) {}

func clockRead() time.Duration {
	return time.Since(time.Time{}) // want "time.Since reads the wall clock in package tool"
}

func outOfScope(s *sched, m map[int]int) int {
	go func() {}()
	for k := range m {
		s.Schedule(k)
	}
	return rand.Intn(10)
}
