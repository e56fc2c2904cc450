package topo

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// runForgetGrid runs a seeded grid in 2 ms slices under one tap: ping
// trains spread over 60 ms, so the fabric drains and refills many times,
// and H3's edge link is down from 16 ms to 36 ms, so what H3 sends
// meanwhile drops at origination — tap events that all carry frame
// identity 0, the one identity that comes back after a Forget. With forget
// set, the fingerprint forgets at every boundary that finds no frame live
// — the daemon's rule. It returns the digest, the event count, how many
// boundaries qualified, and whether one of them fell between two
// identity-0 events.
func runForgetGrid(t *testing.T, shards int, forget bool) (sum, events uint64, drained int, straddled bool) {
	t.Helper()
	opts := DefaultOptions(ARPPath, 42)
	opts.Shards = shards
	built := Grid(opts, 3, 4)
	fp := netsim.NewTapFingerprint()
	zeros, zerosAtDrain := 0, 0
	built.Network.Tap(func(ev netsim.TapEvent) {
		fp.Observe(ev)
		if ev.FrameID == 0 {
			zeros++
		}
	})

	// Nobody pings H3: frames for a host behind a dead link would sit in
	// the bridges' repair buffers and keep the fabric from draining.
	pairs := [][2]string{{"H1", "H4"}, {"H2", "H4"}, {"H3", "H1"}, {"H4", "H2"}}
	for i, pr := range pairs {
		a, b := built.Host(pr[0]), built.Host(pr[1])
		built.Engine.At(built.Now()+time.Duration(i)*7*time.Millisecond, func() {
			a.PingSeries(b.IP(), 4, 56, 9*time.Millisecond, time.Second, func([]host.PingResult) {})
		})
	}
	for i := 0; i < 50; i++ {
		built.RunFor(2 * time.Millisecond)
		switch i {
		case 7:
			built.Link("H3-edge").SetUp(false)
		case 17:
			built.Link("H3-edge").SetUp(true)
		}
		if built.Network.LiveFrames() == 0 {
			drained++
			if zerosAtDrain == 0 {
				zerosAtDrain = zeros
			}
			if forget {
				fp.Forget()
			}
		}
	}
	built.Run()
	return fp.Sum(), fp.Events(), drained, zerosAtDrain > 0 && zeros > zerosAtDrain
}

// TestFingerprintForgetIsExact: forgetting frame identities whenever the
// network holds no live frame changes nothing the fingerprint reports —
// same digest, same event count — on one engine and across four shards,
// origination drops (identity 0) on both sides of a Forget included.
func TestFingerprintForgetIsExact(t *testing.T) {
	wantSum, wantEvents, _, _ := runForgetGrid(t, 1, false)
	if wantEvents == 0 {
		t.Fatal("the run produced no tap events")
	}
	for _, shards := range []int{1, 4} {
		sum, events, drained, straddled := runForgetGrid(t, shards, true)
		if drained < 10 || !straddled {
			t.Fatalf("shards=%d: %d boundaries found the fabric drained, identity 0 on both sides of one: %v; the run does not exercise Forget",
				shards, drained, straddled)
		}
		if sum != wantSum || events != wantEvents {
			t.Fatalf("shards=%d with Forget: %#016x over %d events, want %#016x over %d",
				shards, sum, events, wantSum, wantEvents)
		}
	}
	if sum, events, _, _ := runForgetGrid(t, 4, false); sum != wantSum || events != wantEvents {
		t.Fatalf("shards=4 without Forget: %#016x over %d events, want %#016x over %d", sum, events, wantSum, wantEvents)
	}
}
