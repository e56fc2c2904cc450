package topo

// Slice-boundary equivalence gate for driver-paced runs (DESIGN.md §8,
// §13): fabricserve's replay guarantee rests on RunUntil(T1); …;
// RunUntil(Tn) producing the byte-identical trace to a single
// RunUntil(Tn), for ANY slicing — boundaries landing exactly on event
// timestamps, zero-duration slices, and slices narrower than the
// coordinator's lookahead — at any shard count. This file pins that
// equivalence on a hostile fixture: same-instant ARP bursts scheduled
// both exactly ON future slice boundaries and just off them, plus trunk
// flaps on and off the grid, over near-minimum-lookahead trunks.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

type sliceRun struct {
	fp       uint64
	events   uint64
	answered int
}

// runSliceFixture builds the fixture, lets drive pace the clock from base
// however it wants, then drains and returns the trace identity.
func runSliceFixture(t *testing.T, shards int, drive func(b *Built, base time.Duration)) sliceRun {
	t.Helper()
	opts := DefaultOptions(ARPPath, 13)
	opts.Shards = shards
	// Near-minimum boundary lookahead, as in the barrier stress: slices
	// below 500ns undercut every trunk's lookahead window.
	opts.Link.Delay = 500 * time.Nanosecond
	built := Ring(opts, 6)
	fp := netsim.NewTapFingerprint()
	built.Network.Tap(fp.Observe)

	const n = 6
	base := built.Now()
	answered := make([]int, 2*n)
	for i := 0; i < n; i++ {
		i := i
		a := built.Host(fmt.Sprintf("H%d", i+1))
		b := built.Host(fmt.Sprintf("H%d", (i+1)%n+1))
		c := built.Host(fmt.Sprintf("H%d", (i+n/2)%n+1))
		// One burst exactly ON a future millisecond boundary — the grid
		// every slicing strategy below cuts at — and one 133ns off it.
		onGrid := base + time.Duration(i+1)*time.Millisecond
		offGrid := onGrid + 133*time.Nanosecond
		built.Engine.At(onGrid, func() {
			a.PingSeries(b.IP(), 2, 56, time.Millisecond, time.Second, func(rs []host.PingResult) {
				for _, r := range rs {
					if r.Err == nil {
						answered[2*i]++
					}
				}
			})
		})
		built.Engine.At(offGrid, func() {
			a.PingSeries(c.IP(), 2, 56, time.Millisecond, time.Second, func(rs []host.PingResult) {
				for _, r := range rs {
					if r.Err == nil {
						answered[2*i+1]++
					}
				}
			})
		})
	}
	// One flap exactly on slice boundaries, one straddling them off-grid.
	s23, s56 := built.Link("S2-S3"), built.Link("S5-S6")
	built.Engine.At(base+2*time.Millisecond, func() { s23.SetUp(false) })
	built.Engine.At(base+4*time.Millisecond, func() { s23.SetUp(true) })
	built.Engine.At(base+3*time.Millisecond+701*time.Nanosecond, func() { s56.SetUp(false) })
	built.Engine.At(base+6*time.Millisecond+299*time.Nanosecond, func() { s56.SetUp(true) })

	drive(built, base)
	built.Run() // drain timeouts and stragglers past the paced horizon

	if live := built.Network.LiveFrames(); live != 0 {
		t.Fatalf("shards=%d: %d frames still live after drain", shards, live)
	}
	total := 0
	for _, a := range answered {
		total += a
	}
	return sliceRun{fp: fp.Sum(), events: fp.Events(), answered: total}
}

const sliceHorizon = 20 * time.Millisecond

// sliceStrategies are the pacings under test; every one must reach
// base+sliceHorizon, and every one must trace identically to "unbounded".
var sliceStrategies = []struct {
	name  string
	drive func(b *Built, base time.Duration)
}{
	{"unbounded", func(b *Built, base time.Duration) {
		b.RunUntil(base + sliceHorizon)
	}},
	{"uniform-1ms", func(b *Built, base time.Duration) {
		// Boundaries land exactly on the on-grid burst and flap times.
		for at := base + time.Millisecond; at <= base+sliceHorizon; at += time.Millisecond {
			b.RunUntil(at)
		}
	}},
	{"zero-width", func(b *Built, base time.Duration) {
		// Every boundary hit twice, plus explicit zero-duration slices:
		// re-running to the current time must be a no-op, never a replay
		// or a skip.
		for at := base + time.Millisecond; at <= base+sliceHorizon; at += time.Millisecond {
			b.RunUntil(at)
			b.RunUntil(at)
			b.RunFor(0)
		}
	}},
	{"sub-lookahead", func(b *Built, base time.Duration) {
		// 40 slices of 200ns — well under the 500ns trunk lookahead, so
		// each RunFor spans less than one coordinator window — then
		// coarse slices to the horizon.
		for i := 0; i < 40; i++ {
			b.RunFor(200 * time.Nanosecond)
		}
		// Coarse slices to (past) the horizon; the overshoot is legal
		// because every strategy ends with a full drain anyway.
		for b.Now() < base+sliceHorizon {
			b.RunFor(3 * time.Millisecond)
		}
	}},
}

// TestSliceBoundaryEquivalence asserts that every slicing strategy, at
// every shard count, produces the byte-identical trace of the unsharded
// unbounded run — the exact invariant fabricserve's live-vs-replay
// fingerprint equality is built on.
func TestSliceBoundaryEquivalence(t *testing.T) {
	ref := runSliceFixture(t, 1, sliceStrategies[0].drive)
	if ref.answered == 0 || ref.events == 0 {
		t.Fatalf("degenerate reference run: %+v", ref)
	}
	for _, shards := range []int{1, 2, 3, 6} {
		for _, strat := range sliceStrategies {
			got := runSliceFixture(t, shards, strat.drive)
			if got != ref {
				t.Errorf("shards=%d %s diverged: fp=%#016x events=%d answered=%d, want fp=%#016x events=%d answered=%d",
					shards, strat.name, got.fp, got.events, got.answered, ref.fp, ref.events, ref.answered)
			}
		}
	}
}

// TestRunUntilEndOfTime runs a fabric with one pending ping to the last
// representable instant. The coordinator's inclusive bound — the first key
// after that instant — saturates instead of wrapping below every key, so
// every shard count returns, having run the same events. A goroutine and a
// deadline keep a regression from hanging the suite.
func TestRunUntilEndOfTime(t *testing.T) {
	var want uint64
	for _, shards := range []int{1, 2, 4} {
		opts := DefaultOptions(ARPPath, 17)
		opts.Shards = shards
		built := Grid(opts, 4, 4)
		a, b := built.Host("H1"), built.Host("H4")
		built.Engine.At(built.Now()+time.Millisecond, func() {
			a.PingSeries(b.IP(), 1, 56, time.Millisecond, time.Second, func([]host.PingResult) {})
		})
		done := make(chan uint64, 1)
		go func() {
			built.RunUntil(math.MaxInt64)
			done <- built.Network.Processed()
		}()
		select {
		case got := <-done:
			if shards == 1 {
				want = got
			} else if got != want {
				t.Fatalf("shards=%d ran %d events to the end of time, shards=1 ran %d", shards, got, want)
			}
			if now := built.Now(); now != math.MaxInt64 {
				t.Fatalf("shards=%d: clock at %v after RunUntil(MaxInt64)", shards, now)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("shards=%d: RunUntil(MaxInt64) has not returned after 20s", shards)
		}
	}
}

// TestSliceQuiescent pins the parking predicate fabricserve's serving
// loop uses: false while anything is scheduled anywhere (control engine
// or shard engines), true after a full drain.
func TestSliceQuiescent(t *testing.T) {
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions(ARPPath, 5)
		opts.Shards = shards
		built := Ring(opts, 6)
		if !built.Network.Quiescent() {
			t.Fatalf("shards=%d: not quiescent after warm-up drain", shards)
		}
		a, b := built.Host("H1"), built.Host("H4")
		done := false
		built.Engine.At(built.Now()+time.Millisecond, func() {
			a.PingSeries(b.IP(), 1, 56, time.Millisecond, time.Second, func([]host.PingResult) { done = true })
		})
		if built.Network.Quiescent() {
			t.Fatalf("shards=%d: quiescent with a scheduled burst", shards)
		}
		// Advance into the ping exchange: pending state now lives on the
		// shard engines, not the control engine.
		built.RunFor(time.Millisecond + 10*time.Microsecond)
		if built.Network.Quiescent() {
			t.Fatalf("shards=%d: quiescent mid-exchange", shards)
		}
		built.Run()
		if !done {
			t.Fatalf("shards=%d: ping never completed", shards)
		}
		if !built.Network.Quiescent() {
			t.Fatalf("shards=%d: not quiescent after Run", shards)
		}
		if live := built.Network.LiveFrames(); live != 0 {
			t.Fatalf("shards=%d: %d live frames after drain", shards, live)
		}
	}
}
