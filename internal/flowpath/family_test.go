package flowpath

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/topo"
)

// allPath lists the family: every test here runs once per variant.
var allPath = []topo.Protocol{topo.ARPPath, ProtoFlowPath, ProtoTCPPath}

// familyStats sums, field by field, the one counter block every variant
// keeps.
func familyStats(built *topo.Built) core.Stats {
	var sum core.Stats
	acc := reflect.ValueOf(&sum).Elem()
	for _, br := range built.Bridges {
		s := reflect.ValueOf(br.(interface{ Stats() core.Stats }).Stats())
		for i := 0; i < acc.NumField(); i++ {
			acc.Field(i).SetUint(acc.Field(i).Uint() + s.Field(i).Uint())
		}
	}
	return sum
}

// TestJunkSourceFloodDiesAtTheFirstBridge closes a loop-freedom hole
// reachable from the wire: a flooded frame sourced from a multicast or the
// zero MAC is never bound by the per-source table, so "no entry ⇒ first
// copy" used to let it win the race on every port of every bridge and
// circle a ring until the horizon. It must lose at the first bridge.
func TestJunkSourceFloodDiesAtTheFirstBridge(t *testing.T) {
	for _, proto := range allPath {
		t.Run(string(proto), func(t *testing.T) {
			built := topo.Ring(topo.DefaultOptions(proto, 1), 4)
			before, events := familyStats(built), built.Network.Processed()
			junk := []layers.MAC{{0x01, 0x00, 0x5e, 0x00, 0x00, 0x01}, {}}
			for _, src := range junk {
				frame, err := layers.Serialize(
					&layers.Ethernet{Dst: layers.BroadcastMAC, Src: src, EtherType: layers.EtherTypeIPv4},
					layers.Payload(make([]byte, 46)),
				)
				if err != nil {
					t.Fatal(err)
				}
				built.Host("H1").Port().Send(frame)
			}
			built.RunFor(50 * time.Millisecond)

			after := familyStats(built)
			if n := after.BroadcastRelayed - before.BroadcastRelayed; n != 0 {
				t.Errorf("junk-source floods relayed %d times, want 0", n)
			}
			if n := after.BroadcastRaceDrop - before.BroadcastRaceDrop; n != uint64(len(junk)) {
				t.Errorf("%d race drops, want one per injected frame (%d)", n, len(junk))
			}
			// Transmit + arrival per frame; anything past that is a storm.
			if n := built.Network.Processed() - events; n > 4*uint64(len(junk)) {
				t.Errorf("%d events for %d frames that die at the first bridge", n, len(junk))
			}
		})
	}
}

// TestVariantOnlyCountersStayZeroElsewhere pins the one shared Stats
// block's contract: a field that belongs to one variant is never touched
// by another, so a consumer can add SynFloods or EdgeDelivered across any
// fabric without asking what it is made of. Each fabric carries the same
// ping exchange and TCP stream; the variant's own fields must move, so the
// zeros are not vacuous.
func TestVariantOnlyCountersStayZeroElsewhere(t *testing.T) {
	arpOnly := func(s core.Stats) core.Stats {
		return core.Stats{PathFailsSent: s.PathFailsSent, PathFailsRelayed: s.PathFailsRelayed,
			SrcViolRepairs: s.SrcViolRepairs, ProxyConverted: s.ProxyConverted, ProxyMisses: s.ProxyMisses}
	}
	flowOnly := func(s core.Stats) core.Stats {
		return core.Stats{EdgeDelivered: s.EdgeDelivered, MissDrop: s.MissDrop}
	}
	tcpOnly := func(s core.Stats) core.Stats {
		return core.Stats{SynFloods: s.SynFloods, SynRaceDrops: s.SynRaceDrops, SynDelivered: s.SynDelivered,
			ConnConfirmed: s.ConnConfirmed, ConnForwarded: s.ConnForwarded, Fallbacks: s.Fallbacks}
	}
	for _, proto := range allPath {
		t.Run(string(proto), func(t *testing.T) {
			built := topo.Ring(topo.DefaultOptions(proto, 1), 5)
			if got := pingOK(t, built, "H1", "H3", 3, 10*time.Millisecond); got != 3 {
				t.Fatalf("answered %d of 3 pings", got)
			}
			cfg := app.DefaultStreamConfig()
			cfg.Size = 16 << 10
			var rep *app.StreamReport
			built.Engine.At(built.Now(), func() {
				app.StartStream(built.Host("H1"), built.Host("H3"), cfg, func(r *app.StreamReport) { rep = r })
			})
			built.RunFor(30 * time.Second)
			if rep == nil || !rep.Complete {
				t.Fatalf("stream did not complete: %+v", rep)
			}

			s := familyStats(built)
			if s.PathsConfirmed == 0 || s.Forwarded == 0 {
				t.Fatalf("shared counters never moved: %+v", s)
			}
			var zero core.Stats
			switch proto {
			case topo.ARPPath:
				if flowOnly(s) != zero || tcpOnly(s) != zero {
					t.Errorf("ARP-Path fabric moved another variant's counters: %+v", s)
				}
			case ProtoFlowPath:
				if arpOnly(s) != zero || tcpOnly(s) != zero {
					t.Errorf("Flow-Path fabric moved another variant's counters: %+v", s)
				}
			case ProtoTCPPath:
				// TCP-Path embeds the ARP-Path dataplane, so only
				// Flow-Path's fields are foreign to it.
				if flowOnly(s) != zero {
					t.Errorf("TCP-Path fabric moved Flow-Path's counters: %+v", s)
				}
				if s.ConnForwarded == 0 || s.SynFloods == 0 {
					t.Errorf("TCP-Path's own counters never moved: %+v", s)
				}
			}
		})
	}
}
