package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// --- T5: lock-window ablation ------------------------------------------

// T5Row measures discovery health for one lock-timeout setting.
type T5Row struct {
	LockTimeout time.Duration
	// FloodTime is the worst-case flood traversal of the fabric (the
	// quantity the lock window must exceed; DESIGN.md §5).
	FloodTime time.Duration
	Sent      int
	Lost      int
	// Repairs counts PathRequests triggered because entries expired under
	// the returning replies.
	Repairs uint64
	// SrcPortDrops counts unicasts discarded for violating expired or
	// flapped bindings.
	SrcPortDrops uint64
}

// RunT5LockWindow sweeps the ARP-Path lock timeout on a high-delay ring
// (8 bridges, 1 ms links → flood traversal ≈ 8 ms round the long arc).
// Windows shorter than the traversal let the race guard lapse while
// copies are still in flight and let entries expire under the returning
// replies; the row captures the resulting repair storms and losses.
func RunT5LockWindow(seed int64, windows []time.Duration) []T5Row {
	const ringSize = 8
	const linkDelay = time.Millisecond
	floodTime := time.Duration(ringSize) * linkDelay // long-arc bound
	var rows []T5Row
	for _, w := range windows {
		opts := expOptions(topo.ARPPath, seed)
		opts.ARPPath().LockTimeout = topo.Duration(w)
		opts.Link = opts.Link.WithDelay(linkDelay)
		built := topo.Ring(opts, ringSize)
		row := T5Row{LockTimeout: w, FloodTime: floodTime}

		// Hosts on opposite sides of the ring ping each other repeatedly,
		// flushing ARP caches so every round re-runs the discovery race.
		a := built.Host("H1")
		b := built.Host(fmt.Sprintf("H%d", ringSize/2+1))
		const rounds = 10
		at := built.Now()
		for i := 0; i < rounds; i++ {
			built.Engine.At(at, func() {
				a.ARP().Flush()
				b.ARP().Flush()
				a.Ping(b.IP(), 0, 500*time.Millisecond, func(r host.PingResult) {
					row.Sent++
					if r.Err != nil {
						row.Lost++
					}
				})
			})
			at += 600 * time.Millisecond
		}
		built.RunFor(at - built.Now() + 2*time.Second)

		for _, br := range built.Bridges {
			s := br.(*core.Bridge).Stats()
			row.Repairs += s.PathRequestsSent
			row.SrcPortDrops += s.SrcPortDrop
		}
		finishNet(built)
		rows = append(rows, row)
	}
	return rows
}

// T5Table renders the lock-window sweep.
func T5Table(rows []T5Row) *metrics.Table {
	t := metrics.NewTable("T5 — lock-window ablation on an 8-bridge / 1 ms-link ring (flood traversal ≈ 8 ms)",
		"lock timeout", "sent", "lost", "path requests", "src-port drops")
	for _, r := range rows {
		t.AddRow(r.LockTimeout, r.Sent, r.Lost, r.Repairs, r.SrcPortDrops)
	}
	return t
}

// --- T6: forwarding-state scalability -----------------------------------

// T6Row compares per-bridge forwarding-table sizes for one fabric size.
type T6Row struct {
	Hosts int
	// ARPPathMax/Mean are live locking-table entries per bridge after the
	// lock windows expire — proportional to the paths crossing a bridge.
	ARPPathMax  int
	ARPPathMean float64
	// STPMax/Mean are live FIB entries per bridge — learning switches
	// remember every address whose flood they saw.
	STPMax  int
	STPMean float64
}

// RunT6TableSize runs star traffic (every host talks to host 1) on rings
// of growing size and snapshots forwarding state per bridge.
func RunT6TableSize(seed int64, sizes []int) []T6Row {
	var rows []T6Row
	for _, n := range sizes {
		row := T6Row{Hosts: n}
		row.ARPPathMax, row.ARPPathMean = t6Measure(topo.ARPPath, seed, n)
		row.STPMax, row.STPMean = t6Measure(topo.STP, seed, n)
		rows = append(rows, row)
	}
	return rows
}

func t6Measure(proto topo.Protocol, seed int64, n int) (maxLen int, meanLen float64) {
	built := topo.Ring(expOptions(proto, seed), n)
	defer finishNet(built)
	server := built.Host("H1")
	at := built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		built.Engine.At(at, func() {
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 2 * time.Millisecond
	}
	// Let the exchanges finish and the ARP-Path lock windows lapse, so
	// only confirmed state remains.
	built.RunFor(at - built.Now() + time.Second)

	total := 0
	for _, br := range built.Bridges {
		t := br.PathTables()[0]
		t.FlushExpired(built.Now())
		live := t.Len()
		total += live
		if live > maxLen {
			maxLen = live
		}
	}
	return maxLen, float64(total) / float64(len(built.Bridges))
}

// T6Table renders the state-size comparison.
func T6Table(rows []T6Row) *metrics.Table {
	t := metrics.NewTable("T6 — forwarding state per bridge, star traffic on a ring (after lock expiry)",
		"hosts", "arp-path max", "arp-path mean", "stp max", "stp mean")
	for _, r := range rows {
		t.AddRow(r.Hosts, r.ARPPathMax, fmt.Sprintf("%.1f", r.ARPPathMean),
			r.STPMax, fmt.Sprintf("%.1f", r.STPMean))
	}
	return t
}
