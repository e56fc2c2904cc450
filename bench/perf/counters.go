package main

import (
	"repro/internal/core"
	"repro/internal/flowpath"
	"repro/internal/topo"
)

// bridgeCounts is the slice of the bridges' public Stats() the ledger
// reports, summed over a fabric's bridges of any All-Path variant.
type bridgeCounts struct {
	forwarded uint64 // unicast frames forwarded along a path
	relayed   uint64 // broadcast first copies flooded onward
	raceDrop  uint64 // duplicate broadcast copies discarded: the race's losers
	repairs   uint64
}

func (a bridgeCounts) add(b bridgeCounts) bridgeCounts {
	return bridgeCounts{a.forwarded + b.forwarded, a.relayed + b.relayed, a.raceDrop + b.raceDrop, a.repairs + b.repairs}
}

func (a bridgeCounts) sub(b bridgeCounts) bridgeCounts {
	return bridgeCounts{a.forwarded - b.forwarded, a.relayed - b.relayed, a.raceDrop - b.raceDrop, a.repairs - b.repairs}
}

func sumBridges(brs []topo.Bridge) bridgeCounts {
	var t bridgeCounts
	for _, br := range brs {
		switch b := br.(type) {
		case *flowpath.Bridge:
			s := b.Stats()
			t = t.add(bridgeCounts{s.Forwarded, s.BroadcastRelayed, s.BroadcastRaceDrop, s.RepairsStarted})
		case *flowpath.TCPPath:
			t = t.add(coreCounts(b.Stats()))
		case *core.Bridge:
			t = t.add(coreCounts(b.Stats()))
		}
	}
	return t
}

func coreCounts(s core.Stats) bridgeCounts {
	return bridgeCounts{s.Forwarded, s.BroadcastRelayed, s.BroadcastRaceDrop, s.RepairsStarted}
}

// coreMetrics writes the bridge-layer counts. The race drop ratio is the
// wasted share of the discovery race: duplicate broadcast copies
// discarded, out of all broadcast copies the bridges received.
func coreMetrics(m map[string]float64, c bridgeCounts) {
	m["core.forwarded"] = float64(c.forwarded)
	m["core.broadcast_relayed"] = float64(c.relayed)
	m["core.repairs_started"] = float64(c.repairs)
	if got := c.raceDrop + c.relayed; got > 0 {
		m["core.race_drop_ratio"] = float64(c.raceDrop) / float64(got)
	}
}
