// Pool-leak gate: every figure/table experiment must drain to zero
// outstanding pooled-frame references. The test lives with netsim (whose
// get/put instrumentation it gates) as an external test package so it can
// drive the experiment runners above it in the dependency graph.
package netsim_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestExperimentsDrainToZeroFrameRefs hooks every network the experiment
// runners build, drains it to full quiescence once its measurements are
// done, and asserts the pooled-frame population returns to the baseline:
// any residue is a Retain without a matching Release somewhere on the
// dataplane (netsim ownership contract, DESIGN.md §3).
func TestExperimentsDrainToZeroFrameRefs(t *testing.T) {
	base := netsim.LiveFrames()
	nets := 0
	experiments.OnNetworkDone = func(n *topo.Built) {
		nets++
		if n.Opts.Protocol == topo.ARPPath {
			// ARP-Path fabrics drain to silence: every queued event runs
			// (flights, repair timers, retries) and then nothing may hold
			// a frame.
			n.Run()
		} else {
			// STP re-arms its hello timers forever, so those cells never
			// quiesce; they also never Retain a frame, so it suffices to
			// land whatever is in flight. Step until a frame-free instant
			// (flights last microseconds, hello bursts are seconds apart).
			for i := 0; i < 5000 && netsim.LiveFrames() != base; i++ {
				n.RunFor(200 * time.Microsecond)
			}
		}
		if live := netsim.LiveFrames(); live != base {
			t.Errorf("network %d (%s, %d bridges): %d frame(s) still referenced after drain",
				nets, n.Opts.Protocol, len(n.Bridges), live-base)
		}
	}
	defer func() { experiments.OnNetworkDone = nil }()

	o := topo.DefaultOptions(topo.ARPPath, 1)
	t.Run("figure1", func(t *testing.T) { experiments.RunFigure1(o) })
	t.Run("figure2", func(t *testing.T) {
		cfg := experiments.DefaultFigure2Config()
		cfg.Pings = 3 // smoke depth: the full run is the experiments suite's job
		experiments.RunFigure2(o, cfg)
	})
	t.Run("figure3", func(t *testing.T) { experiments.RunFigure3(o, experiments.DefaultFigure3Config()) })
	t.Run("t1-properties", func(t *testing.T) { experiments.RunT1Properties(o, 3) })
	t.Run("t2-load", func(t *testing.T) { experiments.RunT2Load(o, topo.ARPPath) })
	t.Run("t3-proxy", func(t *testing.T) { experiments.RunT3Proxy(o, []int{6}) })
	t.Run("t4-repair", func(t *testing.T) { experiments.RunT4Repair(o) })
	t.Run("t5-lock-window", func(t *testing.T) {
		experiments.RunT5LockWindow(o, []time.Duration{5 * time.Millisecond, 200 * time.Millisecond})
	})
	t.Run("t6-table-size", func(t *testing.T) { experiments.RunT6TableSize(o, []int{8}) })

	if nets == 0 {
		t.Fatal("no networks reported through OnNetworkDone")
	}
	t.Logf("drained %d experiment networks", nets)
}
