package flowpath

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host/app"
	"repro/internal/topo"
)

// TestTCPPathConnectionPaths pins the per-connection machinery: a
// TCP-lite stream over a tcppath fabric completes, the opening SYN was
// flooded and race-filtered, the SYN|ACK confirmed connection entries hop
// by hop, and steady-state segments forward on those entries rather than
// the ARP-Path fallback.
func TestTCPPathConnectionPaths(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoTCPPath, 1), 5)
	server, client := built.Host("H1"), built.Host("H3")

	cfg := app.DefaultStreamConfig()
	cfg.Size = 64 << 10
	var rep *app.StreamReport
	built.Engine.At(built.Now(), func() {
		app.StartStream(server, client, cfg, func(r *app.StreamReport) { rep = r })
	})
	built.RunFor(30 * time.Second)
	if rep == nil || !rep.Complete {
		t.Fatalf("stream did not complete: %+v", rep)
	}

	var st core.Stats
	conns := 0
	for _, br := range built.Bridges {
		tb := br.(*TCPPath)
		s := tb.Stats()
		st.SynFloods += s.SynFloods
		st.SynRaceDrops += s.SynRaceDrops
		st.SynDelivered += s.SynDelivered
		st.ConnConfirmed += s.ConnConfirmed
		st.ConnForwarded += s.ConnForwarded
		conns += len(tb.Conns().Snapshot(built.Now()))
	}
	if st.SynDelivered == 0 {
		t.Fatal("no SYN terminated at the destination edge")
	}
	if st.ConnConfirmed == 0 {
		t.Fatal("no connection entry was ever confirmed")
	}
	if st.ConnForwarded == 0 {
		t.Fatal("no segment forwarded on a connection entry")
	}
	if conns == 0 {
		t.Fatal("no live connection entries after the stream")
	}
	// The ring has a cycle: the SYN flood must have been race-filtered
	// somewhere, or loop protection never engaged.
	if st.SynFloods == 0 || st.SynRaceDrops == 0 {
		t.Fatalf("SYN flood did not race around the ring: %+v", st)
	}
}

// TestTCPPathNonTCPFallsBackToARPPath pins the fallback half: ICMP and
// ARP traffic on a tcppath fabric behaves exactly like ARP-Path — the
// conversation delivers and the embedded core tables carry it.
func TestTCPPathNonTCPFallsBackToARPPath(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoTCPPath, 1), 5)
	if got := pingOK(t, built, "H2", "H5", 3, 10*time.Millisecond); got != 3 {
		t.Fatalf("answered %d of 3 pings", got)
	}
	a, b := built.Host("H2").MAC(), built.Host("H5").MAC()
	onPath := 0
	for _, br := range built.Bridges {
		tb := br.(*TCPPath)
		if _, ok := tb.EntryFor(a); ok {
			onPath++
		}
		if len(tb.Conns().Snapshot(built.Now())) != 0 {
			t.Fatalf("bridge %s grew connection state from ICMP traffic", br.Name())
		}
		_ = b
	}
	if onPath == 0 {
		t.Fatal("no ARP-Path entries learned")
	}
}

// TestTCPPathSurvivesMidPathRestart wipes a mid-path bridge during a
// transfer: lost connection entries fall back to the ARP-Path dataplane
// (whose own repair machinery restores the MAC path), so the transfer
// still completes.
func TestTCPPathSurvivesMidPathRestart(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoTCPPath, 4), 5)
	server, client := built.Host("H1"), built.Host("H3")

	cfg := app.DefaultStreamConfig()
	cfg.Size = 8 << 20 // ~64ms of line rate: the restart lands mid-transfer
	var rep *app.StreamReport
	built.Engine.At(built.Now(), func() {
		app.StartStream(server, client, cfg, func(r *app.StreamReport) { rep = r })
	})
	// Let the transfer get going, then power-cycle S2 (on the short path
	// between H1 and H3).
	built.RunFor(5 * time.Millisecond)
	built.Engine.At(built.Now(), func() {
		built.Bridge("S2").(*TCPPath).Restart()
	})
	built.RunFor(60 * time.Second)
	if rep == nil || !rep.Complete {
		t.Fatalf("stream did not survive the restart: %+v", rep)
	}
	var fallbacks uint64
	for _, br := range built.Bridges {
		fallbacks += br.(*TCPPath).Stats().Fallbacks
	}
	if fallbacks == 0 {
		t.Fatal("restart recovery never used the ARP-Path fallback")
	}
}
