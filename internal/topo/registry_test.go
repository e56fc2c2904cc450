package topo

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stp"
)

// TestPartialConfigKeepsSetFields is the regression test for the
// zero-value clobber footgun: a caller who tunes one field of a protocol
// config but leaves the "sentinel" fields (LockTimeout / Hello) zero used
// to get the entire struct silently replaced by the defaults. Defaulting
// is field-wise now.
func TestPartialConfigKeepsSetFields(t *testing.T) {
	opts := Options{Protocol: ARPPath, Seed: 1}
	opts.ARPPath().Proxy = true                      // set a knob...
	opts.ARPPath().DisableRepair = true              // ...and another
	b := NewBuilder(opts)                            // LockTimeout left zero
	got := *b.net.Opts.ProtocolConfig.(*core.Config) // post-defaulting view
	if !got.Proxy || !got.DisableRepair {
		t.Fatalf("set fields were clobbered by defaulting: %+v", got)
	}
	if got.LockTimeout != core.DefaultConfig().LockTimeout {
		t.Fatalf("unset LockTimeout not defaulted: %+v", got)
	}

	sopts := Options{Protocol: STP, Seed: 1}
	sopts.STP().MaxAge = Duration(7 * time.Second) // Hello left zero
	sb := NewBuilder(sopts)
	gt := *sb.net.Opts.ProtocolConfig.(*stp.Timers)
	if gt.MaxAge.D() != 7*time.Second {
		t.Fatalf("set MaxAge was clobbered: %+v", gt)
	}
	if gt.Hello != stp.DefaultTimers().Hello {
		t.Fatalf("unset Hello not defaulted: %+v", gt)
	}
	// The warm-up budget must follow the (partially custom) timers.
	want := (2*gt.ForwardDelay + 5*gt.Hello).D()
	if sb.net.Opts.WarmUp != want {
		t.Fatalf("warm-up %v, want %v from defaulted timers", sb.net.Opts.WarmUp, want)
	}
}

// TestLinkConfigFieldWiseDefaults pins the same fix for the link config:
// setting only the delay keeps the delay.
func TestLinkConfigFieldWiseDefaults(t *testing.T) {
	opts := DefaultOptions(ARPPath, 1)
	opts.Link.Rate = 0
	opts.Link.Delay = 42 * time.Microsecond
	b := NewBuilder(opts)
	if b.net.Opts.Link.Delay != 42*time.Microsecond {
		t.Fatalf("set Delay was clobbered: %+v", b.net.Opts.Link)
	}
	if b.net.Opts.Link.Rate == 0 || b.net.Opts.Link.Queue == 0 {
		t.Fatalf("unset Rate/Queue not defaulted: %+v", b.net.Opts.Link)
	}
}

// TestRegistryDrivesBuilder verifies every registered protocol builds
// through the registry alone (no switch left anywhere): a two-bridge line
// of each protocol starts and runs its warm-up.
func TestRegistryDrivesBuilder(t *testing.T) {
	for _, p := range Protocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			n := Line(DefaultOptions(p, 1), 2)
			if len(n.Bridges) != 2 {
				t.Fatalf("built %d bridges", len(n.Bridges))
			}
			// A tick past warm-up; no drain — STP BPDUs are periodic.
			n.RunFor(time.Millisecond)
		})
	}
}

// TestUnknownProtocolPanics pins the registry's error surface.
func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder with an unregistered protocol did not panic")
		}
	}()
	NewBuilder(Options{Protocol: "flow-path-not-registered"})
}
