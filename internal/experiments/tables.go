package experiments

import (
	"fmt"

	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stp"
	"repro/internal/topo"
)

// --- T1: §1/§2.2 properties — loop freedom, no blocked links ----------

// T1Row is one random-topology trial of the properties table.
type T1Row struct {
	Trial        int
	Bridges      int
	Links        int
	FloodCopies  uint64 // broadcast deliveries for one ARP exchange
	CopyBound    uint64 // 2·links (the loop-freedom bound)
	CopiesToHost int    // copies the destination host saw (must be 1)
	BlockedPorts int    // ARP-Path has no port blocking at all
	STPBlocked   int    // same topology under STP, for contrast
}

// RunT1Properties measures flood containment on seeded random topologies.
func RunT1Properties(seed int64, trials int) []T1Row {
	var rows []T1Row
	for trial := 0; trial < trials; trial++ {
		n := 4 + int(seed+int64(trial))%5
		extra := 2 + trial%3
		row := T1Row{Trial: trial}

		built := topo.Random(expOptions(topo.ARPPath, seed+int64(trial)), n, extra)
		row.Bridges = len(built.Bridges)
		trunkLinks := 0
		for _, l := range built.Network.Links() {
			if built.IsTrunk(l) {
				trunkLinks++
			}
		}
		row.Links = trunkLinks
		row.CopyBound = uint64(2 * trunkLinks)

		copies := countBroadcastDeliveries(built.Network)
		h1 := built.Host("H1")
		hN := built.Host(fmt.Sprintf("H%d", n))
		// Count broadcast ARP copies delivered to the destination host's
		// port: the first-port rule must reduce the looped flood to one.
		toHost := 0
		built.Network.Tap(func(ev netsim.TapEvent) {
			if ev.Kind == netsim.TapDeliver && ev.To.Node() == netsim.Node(hN) &&
				layers.FrameDst(ev.Frame).IsBroadcast() &&
				layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP {
				toHost++
			}
		})
		built.Engine.At(built.Now(), func() {
			h1.Ping(hN.IP(), 0, time.Second, func(host.PingResult) {})
		})
		built.RunFor(2 * time.Second)
		row.FloodCopies = *copies
		row.CopiesToHost = toHost
		row.BlockedPorts = 0 // ARP-Path has no blocking state, by construction
		finishNet(built)

		// Same wiring under STP: count blocked ports after convergence.
		stpBuilt := topo.Random(expOptions(topo.STP, seed+int64(trial)), n, extra)
		for _, br := range stpBuilt.Bridges {
			sb := br.(*stp.Bridge)
			for _, p := range sb.Ports() {
				if sb.State(p) == stp.StateBlocking {
					row.STPBlocked++
				}
			}
		}
		// The warm-up horizon falls exactly on a hello tick, so BPDUs sent
		// at that instant are still in flight; land them before the net is
		// dropped or their pooled frames stay referenced forever.
		stpBuilt.RunFor(time.Millisecond)
		finishNet(stpBuilt)
		rows = append(rows, row)
	}
	return rows
}

// T1Table renders the properties comparison.
func T1Table(rows []T1Row) *metrics.Table {
	t := metrics.NewTable("T1 — loop-freedom and link usage on random topologies (one ARP exchange)",
		"trial", "bridges", "trunk links", "flood copies", "bound 2·L+hosts", "dst copies", "arp-path blocked", "stp blocked")
	for _, r := range rows {
		t.AddRow(r.Trial, r.Bridges, r.Links, r.FloodCopies,
			r.CopyBound+uint64(r.Bridges), r.CopiesToHost, r.BlockedPorts, r.STPBlocked)
	}
	return t
}

// --- T2: §2.2 load distribution and path diversity --------------------

// T2Result compares link utilization of concurrent flows on a fat-tree.
type T2Result struct {
	Protocol topo.Protocol
	Flows    int
	// TrunkLinks is the number of bridge-bridge links in the fabric.
	TrunkLinks int
	// UsedLinks carried at least one data frame.
	UsedLinks int
	// MaxBusy and MeanBusy summarize per-direction serialization time on
	// trunk links.
	MaxBusy, MeanBusy time.Duration
	// Jain is the fairness index of per-link busy time (1 = even).
	Jain float64
	// Delivered counts datagrams that reached their sinks.
	Delivered int
	Sent      int
}

// RunT2Load runs 8 cross-pod UDP flows on a k=4 fat tree.
func RunT2Load(seed int64, proto topo.Protocol) *T2Result {
	built := topo.FatTree(expOptions(proto, seed), 4)
	defer finishNet(built)
	res := &T2Result{Protocol: proto}

	// Account *data* wire time per trunk-link direction via a tap: link
	// BusyTime alone would also count BPDUs and HELLOs, hiding the
	// contrast between the protocols.
	dataBusy := make(map[*netsim.Port]time.Duration)
	built.Network.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapSend || layers.FrameEtherType(ev.Frame) != layers.EtherTypeIPv4 {
			return
		}
		if !built.IsTrunk(ev.From.Link()) {
			return
		}
		wire := layers.WireBytes(len(ev.Frame))
		rate := ev.From.Link().Config().Rate
		dataBusy[ev.From] += time.Duration(wire) * 8 * time.Duration(time.Second) / time.Duration(rate)
	})

	// Pair host i with host i+8 (always cross-pod on k=4: hosts 1..4 are
	// pod 1, 5..8 pod 2, ...).
	type pair struct{ src, dst int }
	var pairs []pair
	for i := 1; i <= 8; i++ {
		pairs = append(pairs, pair{i, i + 8})
	}
	res.Flows = len(pairs)

	sinks := make([]*app.Sink, len(pairs))
	for i, p := range pairs {
		sinks[i] = app.NewSink(built.Host(fmt.Sprintf("H%d", p.dst)), 7000)
	}
	// Stagger flow starts so each discovery race sees the queues built up
	// by earlier flows — the mechanism behind ARP-Path's load spreading.
	start := built.Now()
	for i, p := range pairs {
		i, p := i, p
		built.Engine.At(start+time.Duration(i)*2*time.Millisecond, func() {
			app.StartFlow(built.Host(fmt.Sprintf("H%d", p.src)), app.FlowConfig{
				DstIP:       built.Host(fmt.Sprintf("H%d", p.dst)).IP(),
				DstPort:     7000,
				SrcPort:     7001,
				PayloadSize: 1400,
				Interval:    25 * time.Microsecond, // ~450 Mb/s per flow
				Count:       4000,
			}, func(r app.FlowResult) { res.Sent += r.Sent })
		})
	}
	built.RunFor(2 * time.Second)
	for _, s := range sinks {
		res.Delivered += s.Count()
	}

	// Per-direction data wire time on trunk links.
	var busies []float64
	var total, maxBusy time.Duration
	for _, l := range built.Network.Links() {
		if !built.IsTrunk(l) {
			continue
		}
		res.TrunkLinks++
		used := false
		for _, p := range []*netsim.Port{l.A(), l.B()} {
			busy := dataBusy[p]
			busies = append(busies, busy.Seconds())
			total += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			if busy > 0 {
				used = true
			}
		}
		if used {
			res.UsedLinks++
		}
	}
	if len(busies) > 0 {
		res.MeanBusy = total / time.Duration(len(busies))
	}
	res.MaxBusy = maxBusy
	res.Jain = metrics.Jain(busies)
	return res
}

// T2Table renders the load-distribution comparison.
func T2Table(results []*T2Result) *metrics.Table {
	t := metrics.NewTable("T2 — load distribution: 8 cross-pod UDP flows on a k=4 fat tree",
		"protocol", "trunk links", "links used", "max busy", "mean busy", "jain", "delivered/sent")
	for _, r := range results {
		t.AddRow(string(r.Protocol), r.TrunkLinks, r.UsedLinks,
			r.MaxBusy.Round(time.Microsecond), r.MeanBusy.Round(time.Microsecond),
			fmt.Sprintf("%.3f", r.Jain),
			fmt.Sprintf("%d/%d", r.Delivered, r.Sent))
	}
	return t
}

// --- T3: §2.2 scalability via the ARP Proxy ---------------------------

// T3Row measures broadcast suppression for one fabric size.
type T3Row struct {
	Hosts int
	Proxy bool
	// WarmBroadcasts is the broadcast deliveries during the steady-state
	// re-ARP phase (after every edge bridge has snooped the server).
	WarmBroadcasts uint64
	// PerARP is WarmBroadcasts divided by the number of re-ARPs.
	PerARP float64
	// ProxyReplies counts locally answered requests.
	ProxyReplies uint64
}

// RunT3Proxy measures ARP broadcast volume with and without the in-switch
// proxy on rings of increasing size, with every host periodically
// re-resolving one server.
func RunT3Proxy(seed int64, sizes []int) []T3Row {
	var rows []T3Row
	for _, n := range sizes {
		for _, proxy := range []bool{false, true} {
			rows = append(rows, runT3Cell(seed, n, proxy))
		}
	}
	return rows
}

func runT3Cell(seed int64, n int, proxy bool) T3Row {
	opts := expOptions(topo.ARPPath, seed)
	opts.ARPPath().Proxy = proxy
	built := topo.Ring(opts, n)
	defer finishNet(built)
	row := T3Row{Hosts: n, Proxy: proxy}

	server := built.Host("H1")
	// Phase 1 (seeding): every host resolves the server once; the replies
	// seed each edge bridge's proxy cache.
	at := built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		built.Engine.At(at, func() {
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 5 * time.Millisecond
	}
	built.RunFor(at - built.Now() + 2*time.Second)

	// Phase 2 (steady state): flush host caches and re-resolve — the
	// periodic re-ARP traffic EtherProxy [5] suppresses.
	counter := countBroadcastDeliveries(built.Network)
	reARPs := 0
	at = built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		reARPs++
		built.Engine.At(at, func() {
			h.ARP().Flush()
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 5 * time.Millisecond
	}
	built.RunFor(at - built.Now() + 2*time.Second)

	row.WarmBroadcasts = *counter
	if reARPs > 0 {
		row.PerARP = float64(row.WarmBroadcasts) / float64(reARPs)
	}
	for _, br := range built.Bridges {
		row.ProxyReplies += br.(*core.Bridge).Stats().ProxyConverted
	}
	return row
}

// T3Table renders the proxy-scaling comparison.
func T3Table(rows []T3Row) *metrics.Table {
	t := metrics.NewTable("T3 — ARP broadcast suppression by the in-switch proxy (steady-state re-ARPs)",
		"hosts", "proxy", "broadcast deliveries", "per re-ARP", "proxy replies")
	for _, r := range rows {
		t.AddRow(r.Hosts, r.Proxy, r.WarmBroadcasts, fmt.Sprintf("%.1f", r.PerARP), r.ProxyReplies)
	}
	return t
}

// --- T4: §2.1.4 repair ablation ----------------------------------------

// T4Row is one variant's recovery from a single mid-stream failure.
type T4Row struct {
	Variant    string
	Completed  bool
	RepairTime time.Duration // first stall after the failure
	TotalStall time.Duration
	Transfer   time.Duration
}

// RunT4Repair compares recovery mechanisms after one failure on the demo
// fabric: ARP-Path repair, ARP-Path with repair disabled (blackhole),
// and STP with default and fast timers.
func RunT4Repair(seed int64) []T4Row {
	variants := []struct {
		name  string
		proto topo.Protocol
		mod   func(*topo.Options)
	}{
		{"arp-path (repair on)", topo.ARPPath, nil},
		{"arp-path (repair off)", topo.ARPPath, func(o *topo.Options) { o.ARPPath().DisableRepair = true }},
		{"stp (default timers)", topo.STP, nil},
		{"stp (fast timers)", topo.STP, func(o *topo.Options) { *o.STP() = stp.FastTimers() }},
	}
	var rows []T4Row
	for _, v := range variants {
		opts := expOptions(v.proto, seed)
		if v.mod != nil {
			v.mod(&opts)
			opts.WarmUp = 0 // recomputed by the builder from the modified config
		}
		rows = append(rows, runT4Cell(opts, v.name))
	}
	return rows
}

func runT4Cell(opts topo.Options, name string) T4Row {
	built := topo.Figure2(opts, topo.ProfileUniform)
	defer finishNet(built)
	a, b := built.Host("A"), built.Host("B")
	row := T4Row{Variant: name}

	scfg := app.DefaultStreamConfig()
	scfg.Size = 16 << 20
	meter := attachStreamMeter(built, b)
	var finished *app.StreamReport
	var streamer *app.Streamer
	start := built.Now()
	built.Engine.At(start, func() {
		streamer = app.StartStream(a, b, scfg, func(r *app.StreamReport) { finished = r })
	})
	failAt := start + 50*time.Millisecond
	built.Engine.At(failAt, func() {
		if l := activeUplink(built, a.MAC()); l != nil && l.Up() {
			meter.onFail(built.Now())
			l.SetUp(false)
		}
	})
	built.RunFor(3 * time.Minute)
	if finished == nil && streamer != nil {
		finished = streamer.Report()
	}
	if finished == nil {
		return row
	}
	row.Completed = finished.Complete
	row.TotalStall = finished.TotalStall
	end := built.Now()
	if finished.Complete {
		row.Transfer = finished.Finished - finished.Connected
		end = finished.Finished
	}
	if repairs := meter.repairTimes(end); len(repairs) > 0 {
		row.RepairTime = repairs[0]
	}
	return row
}

// T4Table renders the ablation.
func T4Table(rows []T4Row) *metrics.Table {
	t := metrics.NewTable("T4 — recovery after one mid-stream link failure (16 MiB stream)",
		"variant", "completed", "repair time", "total stall", "transfer time")
	for _, r := range rows {
		completed := "no"
		var tt any = "-"
		if r.Completed {
			completed = "yes"
			tt = r.Transfer.Round(time.Millisecond)
		}
		t.AddRow(r.Variant, completed, r.RepairTime.Round(time.Microsecond),
			r.TotalStall.Round(time.Millisecond), tt)
	}
	return t
}
