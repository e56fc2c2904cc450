package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestAfterRunsInOrder(t *testing.T) {
	e := New(1)
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	e := New(1)
	var times []time.Duration
	e.After(time.Millisecond, func() {
		times = append(times, e.Now())
		e.After(time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestScheduleAtNowRunsAfterEarlierEvents(t *testing.T) {
	e := New(1)
	var got []string
	e.At(0, func() { got = append(got, "a") })
	e.At(0, func() {
		got = append(got, "b")
		e.At(e.Now(), func() { got = append(got, "c") })
	})
	e.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !tm.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(0, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after event ran")
	}
}

func TestStopNilTimer(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil.Stop() = true")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	ran := false
	e.After(5*time.Millisecond, func() { ran = true })
	e.After(20*time.Millisecond, func() { t.Fatal("future event ran") })
	e.RunUntil(10 * time.Millisecond)
	if !ran {
		t.Fatal("due event did not run")
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v, want 10ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := New(1)
	ran := false
	e.At(10*time.Millisecond, func() { ran = true })
	e.RunUntil(10 * time.Millisecond)
	if !ran {
		t.Fatal("event exactly at boundary did not run")
	}
}

func TestRunForAccumulates(t *testing.T) {
	e := New(1)
	e.RunFor(time.Second)
	e.RunFor(time.Second)
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.After(time.Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(0, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-time.Millisecond, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.After(0, nil)
}

func TestEventLimitPanics(t *testing.T) {
	e := New(1)
	e.SetEventLimit(100)
	var loop func()
	loop = func() { e.After(time.Nanosecond, loop) }
	e.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip the event limit")
		}
	}()
	e.Run()
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		e := New(seed)
		var out []int64
		var tick func()
		n := 0
		tick = func() {
			out = append(out, int64(e.Now()), e.Stream().Rand().Int63n(1000))
			n++
			if n < 50 {
				e.After(time.Duration(1+e.Stream().Rand().Intn(100))*time.Microsecond, tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestNextEventAt(t *testing.T) {
	e := New(1)
	if k, ok := e.NextKey(); ok || k != MaxKey {
		t.Fatalf("NextKey on empty queue = %v,%v", k, ok)
	}
	tm := e.After(7*time.Millisecond, func() {})
	if k, ok := e.NextKey(); !ok || k.At != 7*time.Millisecond {
		t.Fatalf("NextKey = %v,%v", k, ok)
	}
	tm.Stop()
	if _, ok := e.NextKey(); ok {
		t.Fatal("NextKey reported a canceled event")
	}
}

func TestProcessedCountsOnlyLiveEvents(t *testing.T) {
	e := New(1)
	e.After(time.Millisecond, func() {})
	tm := e.After(2*time.Millisecond, func() {})
	tm.Stop()
	e.Run()
	if e.Processed() != 1 {
		t.Fatalf("Processed() = %d, want 1", e.Processed())
	}
}

// Property: for any batch of events with arbitrary non-negative delays,
// execution order is sorted by (time, insertion order) and the clock never
// goes backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysMs []uint8) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := New(7)
		type fired struct {
			at  time.Duration
			idx int
		}
		var out []fired
		for i, d := range delaysMs {
			i, at := i, time.Duration(d)*time.Millisecond
			e.At(at, func() { out = append(out, fired{e.Now(), i}) })
		}
		e.Run()
		if len(out) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].at < out[i-1].at {
				return false
			}
			if out[i].at == out[i-1].at && out[i].idx < out[i-1].idx {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers fires exactly the complement.
func TestQuickTimerCancellation(t *testing.T) {
	f := func(cancel []bool) bool {
		e := New(3)
		firedCount := 0
		var timers []*Timer
		for range cancel {
			timers = append(timers, e.After(time.Millisecond, func() { firedCount++ }))
		}
		want := 0
		for i, c := range cancel {
			if c {
				timers[i].Stop()
			} else {
				want++
			}
		}
		e.Run()
		return firedCount == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// benchTicker is a self-rescheduling event: depth of them keep that many
// events pending while left events run (bench/perf's microScheduleRun).
type benchTicker struct {
	e      *Engine
	period time.Duration
	left   *int
}

func (t *benchTicker) RunEvent(int32) {
	if *t.left > 0 {
		*t.left--
		t.e.ScheduleRunner(t.e.Now()+t.period, t, 0)
	}
}

type nopRunner struct{}

func (nopRunner) RunEvent(int32) {}

// BenchmarkEngineParkedTimers is the far tier's own number: a depth-64
// ticker load — one ScheduleRunner plus one dispatch per op — run with
// 0 / 1 024 / 16 384 timers parked a second past its end. The tickers'
// periods are staggered (64–127 ns) so that, as in a fabric, reschedules
// do not arrive in key order and go through the heap rather than the
// batch spill. With one heap the cost per event grows with the log of
// everything pending; with the far tier the three must read the same
// (EXPERIMENTS.md "Parked timers leave the hot heap" has both).
func BenchmarkEngineParkedTimers(b *testing.B) {
	const depth = 64
	for _, parked := range []int{0, 1024, 16384} {
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			e := New(1)
			end := time.Duration(2*b.N + 4*depth) // the slowest ticker's share, with room
			for i := 0; i < parked; i++ {
				e.ScheduleRunner(end+time.Second+time.Duration(i), nopRunner{}, 0)
			}
			left := b.N - depth
			for i := 0; i < depth; i++ {
				period := time.Duration(depth + i*7%depth)
				e.ScheduleRunner(time.Duration(i+1), &benchTicker{e: e, period: period, left: &left}, 0)
			}
			b.ResetTimer()
			e.RunUntil(end)
			if e.Pending() != parked || left > 0 {
				b.Fatalf("%d events pending and %d ticks left after the load, want the %d parked and 0",
					e.Pending(), left, parked)
			}
		})
	}
}
