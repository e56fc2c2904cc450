package topo

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// settledGoroutines yields until the goroutine count is want or a second
// has passed, and returns the last count. A helper that has reported its
// exit to the coordinator may still be a few instructions short of leaving
// the runtime's count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestShardedRunStartsOnlyHelperGoroutines pins what the coordinator costs
// in goroutines: min(shards, GOMAXPROCS) - 1 for the length of a Run call
// that dispatches a window, none after it returns. Four shards on one
// processor start nothing; on two they start one, not four.
func TestShardedRunStartsOnlyHelperGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, helpers int }{{1, 0}, {2, 1}} {
		runtime.GOMAXPROCS(tc.procs)
		opts := DefaultOptions(ARPPath, 42)
		opts.Shards = 4
		built := Grid(opts, 3, 4)
		if k, _ := built.Network.Sharded(); k != 4 {
			t.Fatalf("expected a 4-shard grid, got %d shards", k)
		}
		a, b := built.Host("H1"), built.Host("H4")
		built.Engine.At(built.Now(), func() {
			a.Ping(b.IP(), 56, time.Second, func(host.PingResult) {})
		})
		// Sampled from a driver event, i.e. a barrier in the middle of the
		// run, after the ping has put windows behind it: whatever the
		// coordinator spawns for a run exists by now.
		var during int
		var windows uint64
		built.Engine.At(built.Now()+50*time.Millisecond, func() {
			during = runtime.NumGoroutine()
			windows = built.Network.CoordStats().Windows
		})
		before := runtime.NumGoroutine()
		built.RunFor(100 * time.Millisecond)
		after := settledGoroutines(before)
		if windows == 0 {
			t.Fatalf("GOMAXPROCS=%d: no window ran before the sample", tc.procs)
		}
		if during != before+tc.helpers {
			t.Errorf("GOMAXPROCS=%d: %d goroutines inside the run, %d before it, want %d more",
				tc.procs, during, before, tc.helpers)
		}
		if after != before {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after the run, %d before it", tc.procs, after, before)
		}
		cs := built.Network.CoordStats()
		if tc.helpers == 0 && (cs.Handoffs != 0 || cs.WakeNS != 0 || cs.WaitNS != 0) {
			t.Errorf("GOMAXPROCS=1: hand-off counters moved with nobody to hand to: %+v", cs)
		}
	}
}

// onHelper reports whether the calling goroutine is one of the
// coordinator's helpers, by the frame its stack starts from.
func onHelper() bool {
	buf := make([]byte, 16<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*coordinator).helper"))
}

// TestShardWindowPanicReraisedOnCaller holds shard.go to its promise: a
// panic inside a shard window is re-raised, with its original value, on the
// goroutine that called Run — whether the window ran inline on that
// goroutine (GOMAXPROCS 1) or on a helper (GOMAXPROCS 2) — after the join,
// so no helper outlives the call and nobody is left parked.
func TestShardWindowPanicReraisedOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		opts := DefaultOptions(ARPPath, 42)
		opts.Shards = 2
		built := Line(opts, 4)
		assign := PartitionAssign(built.Net, 2)
		var left, right Bridge
		for _, br := range built.Bridges {
			if assign[br.Name()] == 0 && left == nil {
				left = br
			} else if assign[br.Name()] == 1 && right == nil {
				right = br
			}
		}
		if left == nil || right == nil {
			t.Fatalf("line did not split in two: %v", assign)
		}

		// One shard-local event per shard at the same instant on an idle
		// fabric: both land in one window. At GOMAXPROCS 2 they meet
		// before going on, which takes two goroutines, so exactly one of
		// them is on the helper — that one panics. At GOMAXPROCS 1 there
		// is nobody to meet; the first one panics where it stands.
		arrived := map[Bridge]chan struct{}{left: make(chan struct{}), right: make(chan struct{})}
		sentinel := new(int)
		var inline, helped int
		body := func(me, other Bridge) func() {
			return func() {
				if procs == 1 {
					if onHelper() {
						t.Error("GOMAXPROCS=1: shard window ran on a helper")
					}
					inline++
					panic(sentinel)
				}
				close(arrived[me])
				select {
				case <-arrived[other]:
				case <-time.After(10 * time.Second):
					t.Error("GOMAXPROCS=2: the two shard windows never ran side by side")
					return
				}
				if onHelper() {
					helped++
					panic(sentinel)
				}
			}
		}
		at := built.Now() + time.Millisecond
		built.Network.ScheduleScoped(at, left, []netsim.Node{left}, body(left, right))
		built.Network.ScheduleScoped(at, right, []netsim.Node{right}, body(right, left))

		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			built.RunFor(10 * time.Millisecond)
		}()
		if got != any(sentinel) {
			t.Errorf("GOMAXPROCS=%d: recovered %v, want the handler's own panic value", procs, got)
		}
		if procs == 1 && inline == 0 || procs == 2 && helped != 1 {
			t.Errorf("GOMAXPROCS=%d: panicked inline %d times, on a helper %d times", procs, inline, helped)
		}
		if after := settledGoroutines(before); after != before {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after the panic, %d before the run", procs, after, before)
		}
	}
}
