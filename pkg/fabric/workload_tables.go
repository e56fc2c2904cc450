package fabric

import (
	"fmt"
	"io"
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

// The evaluation tables derived from the paper's §2.2 claims (DESIGN.md
// T1–T6), one kind each and all six under "all". A table's run measures
// its rows at the Spec's seed and shard count; its render lays them out.

// paperTable is a T-kind's run: its rows, rendered.
type paperTable func(spec Spec) (*metrics.Table, error)

// tableOf pairs a table's run with its renderer.
func tableOf[R any](run func(Spec) ([]R, error), render func([]R) *metrics.Table) paperTable {
	return func(spec Spec) (*metrics.Table, error) {
		rows, err := run(spec)
		if err != nil {
			return nil, err
		}
		return render(rows), nil
	}
}

var (
	t1 = tableOf(t1Properties, t1Table)
	t2 = tableOf(t2Load, t2Table)
	t3 = tableOf(t3Proxy, t3Table)
	t4 = tableOf(t4Repair, t4Table)
	t5 = tableOf(t5LockWindow, t5Table)
	t6 = tableOf(t6TableSize, t6Table)
)

// emits is the run of a kind that renders tables, in order.
func emits(tables ...paperTable) func(*Runner, Spec, io.Writer, *Result) error {
	return func(r *Runner, spec Spec, out io.Writer, res *Result) error {
		for _, table := range tables {
			t, err := table(spec)
			if err != nil {
				return err
			}
			r.emit(out, res, t)
		}
		return nil
	}
}

// countBroadcastDeliveries attaches a counter of broadcast ARP/PathRequest
// deliveries — the flood volume measure of T1/T3.
func countBroadcastDeliveries(net *netsim.Network) *uint64 {
	var n uint64
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapDeliver {
			return
		}
		if !layers.FrameDst(ev.Frame).IsBroadcast() {
			return
		}
		switch layers.FrameEtherType(ev.Frame) {
		case layers.EtherTypeARP, layers.EtherTypePathCtl:
			n++
		}
	})
	return &n
}

// --- T1: §1/§2.2 properties — loop freedom, no blocked links ----------

// t1Row is one random-topology trial of the properties table.
type t1Row struct {
	trial        int
	bridges      int
	links        int
	floodCopies  uint64 // broadcast deliveries for one ARP exchange
	copyBound    uint64 // 2·links (the loop-freedom bound)
	copiesToHost int    // copies the destination host saw (must be 1)
	stpBlocked   int    // same topology under STP, for contrast
}

// t1Properties measures flood containment on six seeded random
// topologies: trial i runs at the Spec's seed + i.
func t1Properties(spec Spec) ([]t1Row, error) {
	var rows []t1Row
	for trial := range 6 {
		s := spec
		s.Seed += int64(trial)
		// A non-negative remainder: every seed draws 4–8 bridges.
		n := 4 + int((s.Seed%5+5)%5)
		shape := topo.TopologySpec{Family: "random", N: n, ExtraEdges: 2 + trial%3}
		row := t1Row{trial: trial}

		built, err := topo.Build(s.paperOptions(topo.ARPPath), shape)
		if err != nil {
			return nil, err
		}
		row.bridges = len(built.Bridges)
		for _, l := range built.Network.Links() {
			if built.IsTrunk(l) {
				row.links++
			}
		}
		row.copyBound = uint64(2 * row.links)

		copies := countBroadcastDeliveries(built.Network)
		h1 := built.Host("H1")
		hN := built.Host(fmt.Sprintf("H%d", n))
		// Count broadcast ARP copies delivered to the destination host's
		// port: the first-port rule must reduce the looped flood to one.
		built.Network.Tap(func(ev netsim.TapEvent) {
			if ev.Kind == netsim.TapDeliver && ev.To.Node() == netsim.Node(hN) &&
				layers.FrameDst(ev.Frame).IsBroadcast() &&
				layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP {
				row.copiesToHost++
			}
		})
		built.Engine.At(built.Now(), func() {
			h1.Ping(hN.IP(), 0, time.Second, func(host.PingResult) {})
		})
		built.RunFor(2 * time.Second)
		row.floodCopies = *copies

		// Same wiring under STP: count blocked ports after convergence.
		stpBuilt, err := topo.Build(s.paperOptions(topo.STP), shape)
		if err != nil {
			return nil, err
		}
		for _, br := range stpBuilt.Bridges {
			sb := br.(*stp.Bridge)
			for _, p := range sb.Ports() {
				if sb.State(p) == stp.StateBlocking {
					row.stpBlocked++
				}
			}
		}
		// The warm-up horizon falls exactly on a hello tick, so BPDUs sent
		// at that instant are still in flight; land them before the net is
		// dropped or their pooled frames stay referenced forever.
		stpBuilt.RunFor(time.Millisecond)
		rows = append(rows, row)
	}
	return rows, nil
}

func t1Table(rows []t1Row) *metrics.Table {
	t := metrics.NewTable("T1 — loop-freedom and link usage on random topologies (one ARP exchange)",
		"trial", "bridges", "trunk links", "flood copies", "bound 2·L+hosts", "dst copies", "arp-path blocked", "stp blocked")
	for _, r := range rows {
		// ARP-Path has no port blocking state at all, by construction.
		t.AddRow(r.trial, r.bridges, r.links, r.floodCopies,
			r.copyBound+uint64(r.bridges), r.copiesToHost, 0, r.stpBlocked)
	}
	return t
}

// --- T2: §2.2 load distribution and path diversity --------------------

// t2Result is one protocol's link utilization under concurrent flows on
// a fat tree.
type t2Result struct {
	protocol topo.Protocol
	// trunkLinks is the number of bridge-bridge links in the fabric.
	trunkLinks int
	// usedLinks carried at least one data frame.
	usedLinks int
	// maxBusy and meanBusy summarize per-direction serialization time on
	// trunk links.
	maxBusy, meanBusy time.Duration
	// jain is the fairness index of per-link busy time (1 = even).
	jain float64
	// delivered counts datagrams that reached their sinks.
	delivered int
	sent      int
}

// t2Load runs 8 cross-pod UDP flows on a k=4 fat tree bridged by ARP-Path,
// then by STP.
func t2Load(spec Spec) ([]*t2Result, error) {
	var rs []*t2Result
	for _, proto := range []topo.Protocol{topo.ARPPath, topo.STP} {
		r, err := t2Cell(spec.paperOptions(proto))
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func t2Cell(o topo.Options) (*t2Result, error) {
	built, err := topo.Build(o, topo.TopologySpec{Family: "fattree", N: 4})
	if err != nil {
		return nil, err
	}
	res := &t2Result{protocol: o.Protocol}

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
	const flows = 8
	sinks := make([]*app.Sink, flows)
	for i := range flows {
		sinks[i] = app.NewSink(built.Host(fmt.Sprintf("H%d", i+1+flows)), 7000)
	}
	// Stagger flow starts so each discovery race sees the queues built up
	// by earlier flows — the mechanism behind ARP-Path's load spreading.
	start := built.Now()
	for i := range flows {
		built.Engine.At(start+time.Duration(i)*2*time.Millisecond, func() {
			app.StartFlow(built.Host(fmt.Sprintf("H%d", i+1)), app.FlowConfig{
				DstIP:       built.Host(fmt.Sprintf("H%d", i+1+flows)).IP(),
				DstPort:     7000,
				SrcPort:     7001,
				PayloadSize: 1400,
				Interval:    25 * time.Microsecond, // ~450 Mb/s per flow
				Count:       4000,
			}, func(r app.FlowResult) { res.sent += r.Sent })
		})
	}
	built.RunFor(2 * time.Second)
	for _, s := range sinks {
		res.delivered += s.Count()
	}

	// Per-direction data wire time on trunk links.
	var busies []float64
	var total time.Duration
	for _, l := range built.Network.Links() {
		if !built.IsTrunk(l) {
			continue
		}
		res.trunkLinks++
		used := false
		for _, p := range []*netsim.Port{l.A(), l.B()} {
			busy := dataBusy[p]
			busies = append(busies, busy.Seconds())
			total += busy
			res.maxBusy = max(res.maxBusy, busy)
			used = used || busy > 0
		}
		if used {
			res.usedLinks++
		}
	}
	if len(busies) > 0 {
		res.meanBusy = total / time.Duration(len(busies))
	}
	res.jain = metrics.Jain(busies)
	return res, nil
}

func t2Table(rs []*t2Result) *metrics.Table {
	t := metrics.NewTable("T2 — load distribution: 8 cross-pod UDP flows on a k=4 fat tree",
		"protocol", "trunk links", "links used", "max busy", "mean busy", "jain", "delivered/sent")
	for _, r := range rs {
		t.AddRow(string(r.protocol), r.trunkLinks, r.usedLinks,
			r.maxBusy.Round(time.Microsecond), r.meanBusy.Round(time.Microsecond),
			fmt.Sprintf("%.3f", r.jain),
			fmt.Sprintf("%d/%d", r.delivered, r.sent))
	}
	return t
}

// --- T3: §2.2 scalability via the ARP Proxy ---------------------------

// t3Row measures broadcast suppression for one fabric size.
type t3Row struct {
	hosts int
	proxy bool
	// warmBroadcasts is the broadcast deliveries during the steady-state
	// re-ARP phase (after every edge bridge has snooped the server).
	warmBroadcasts uint64
	// perARP is warmBroadcasts divided by the number of re-ARPs.
	perARP float64
	// proxyReplies counts locally answered requests.
	proxyReplies uint64
}

// t3Proxy measures ARP broadcast volume with and without the in-switch
// proxy on rings of 4, 8, 16 and 32 bridges, with every host periodically
// re-resolving one server.
func t3Proxy(spec Spec) ([]t3Row, error) {
	var rows []t3Row
	for _, n := range []int{4, 8, 16, 32} {
		for _, proxy := range []bool{false, true} {
			row, err := t3Cell(spec, n, proxy)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func t3Cell(spec Spec, n int, proxy bool) (t3Row, error) {
	opts := spec.paperOptions(topo.ARPPath)
	opts.ARPPath().Proxy = proxy
	built, err := topo.Build(opts, topo.TopologySpec{Family: "ring", N: n})
	if err != nil {
		return t3Row{}, err
	}
	row := t3Row{hosts: n, proxy: proxy}

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
	at = built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		built.Engine.At(at, func() {
			h.ARP().Flush()
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 5 * time.Millisecond
	}
	built.RunFor(at - built.Now() + 2*time.Second)

	row.warmBroadcasts = *counter
	row.perARP = float64(row.warmBroadcasts) / float64(n-1) // one re-ARP per host but the server
	for _, br := range built.Bridges {
		row.proxyReplies += br.(*core.Bridge).Stats().ProxyConverted
	}
	return row, nil
}

func t3Table(rows []t3Row) *metrics.Table {
	t := metrics.NewTable("T3 — ARP broadcast suppression by the in-switch proxy (steady-state re-ARPs)",
		"hosts", "proxy", "broadcast deliveries", "per re-ARP", "proxy replies")
	for _, r := range rows {
		t.AddRow(r.hosts, r.proxy, r.warmBroadcasts, fmt.Sprintf("%.1f", r.perARP), r.proxyReplies)
	}
	return t
}

// --- T4: §2.1.4 repair ablation ----------------------------------------

// t4Row is one variant's recovery from a single mid-stream failure: a
// Figure 3 run with one cut.
type t4Row struct {
	variant string
	*figure3Result
}

// repairTime is the interruption after the cut (zero if none landed).
func (r t4Row) repairTime() time.Duration {
	if len(r.failures) == 0 {
		return 0
	}
	return r.failures[0].repair
}

// t4Repair compares recovery mechanisms after one failure on the demo
// fabric — ARP-Path repair, ARP-Path with repair disabled (blackhole),
// and STP with default and fast timers — each a 16 MiB Figure 3 stream
// with one cut and a 3 min budget.
func t4Repair(spec Spec) ([]t4Row, error) {
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
	var rows []t4Row
	for _, v := range variants {
		opts := spec.paperOptions(v.proto)
		if v.mod != nil {
			v.mod(&opts)
			opts.WarmUp = 0 // recomputed by the builder from the modified config
		}
		f, err := figure3(opts, WorkloadSpec{StreamSize: 16 << 20, Failures: 1}, 3*time.Minute)
		if err != nil {
			return nil, err
		}
		rows = append(rows, t4Row{v.name, f})
	}
	return rows, nil
}

func t4Table(rows []t4Row) *metrics.Table {
	t := metrics.NewTable("T4 — recovery after one mid-stream link failure (16 MiB stream)",
		"variant", "completed", "repair time", "total stall", "transfer time")
	for _, r := range rows {
		completed, tt, stall, _ := r.outcome()
		t.AddRow(r.variant, completed, r.repairTime().Round(time.Microsecond), stall.Round(time.Millisecond), tt)
	}
	return t
}

// --- T5: lock-window ablation ------------------------------------------

// t5Row measures discovery health for one lock-timeout setting.
type t5Row struct {
	lockTimeout time.Duration
	sent        int
	lost        int
	// repairs counts PathRequests triggered because entries expired under
	// the returning replies.
	repairs uint64
	// srcPortDrops counts unicasts discarded for violating expired or
	// flapped bindings.
	srcPortDrops uint64
}

// t5LockWindow sweeps the ARP-Path lock timeout below, near and above the
// flood traversal of a high-delay ring (8 bridges, 1 ms links → ≈ 8 ms
// round the long arc, the quantity the lock window must exceed; DESIGN.md
// §5). Windows shorter than the traversal let the race guard lapse while
// copies are still in flight and let entries expire under the returning
// replies; the row captures the resulting repair storms and losses.
func t5LockWindow(spec Spec) ([]t5Row, error) {
	const ringSize = 8
	var rows []t5Row
	for _, w := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond} {
		opts := spec.paperOptions(topo.ARPPath)
		opts.ARPPath().LockTimeout = topo.Duration(w)
		opts.Link = opts.Link.WithDelay(time.Millisecond)
		built, err := topo.Build(opts, topo.TopologySpec{Family: "ring", N: ringSize})
		if err != nil {
			return nil, err
		}
		row := t5Row{lockTimeout: w}

		// Hosts on opposite sides of the ring ping each other repeatedly,
		// flushing ARP caches so every round re-runs the discovery race.
		a := built.Host("H1")
		b := built.Host(fmt.Sprintf("H%d", ringSize/2+1))
		at := built.Now()
		for range 10 {
			built.Engine.At(at, func() {
				a.ARP().Flush()
				b.ARP().Flush()
				a.Ping(b.IP(), 0, 500*time.Millisecond, func(r host.PingResult) {
					row.sent++
					if r.Err != nil {
						row.lost++
					}
				})
			})
			at += 600 * time.Millisecond
		}
		built.RunFor(at - built.Now() + 2*time.Second)

		for _, br := range built.Bridges {
			s := br.(*core.Bridge).Stats()
			row.repairs += s.PathRequestsSent
			row.srcPortDrops += s.SrcPortDrop
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func t5Table(rows []t5Row) *metrics.Table {
	t := metrics.NewTable("T5 — lock-window ablation on an 8-bridge / 1 ms-link ring (flood traversal ≈ 8 ms)",
		"lock timeout", "sent", "lost", "path requests", "src-port drops")
	for _, r := range rows {
		t.AddRow(r.lockTimeout, r.sent, r.lost, r.repairs, r.srcPortDrops)
	}
	return t
}

// --- T6: forwarding-state scalability -----------------------------------

// t6Row compares per-bridge forwarding-table sizes for one fabric size.
type t6Row struct {
	hosts int
	// arpPathMax/Mean are live locking-table entries per bridge after the
	// lock windows expire — proportional to the paths crossing a bridge.
	arpPathMax  int
	arpPathMean float64
	// stpMax/Mean are live FIB entries per bridge — learning switches
	// remember every address whose flood they saw.
	stpMax  int
	stpMean float64
}

// t6TableSize runs star traffic (every host talks to host 1) on rings of
// 8, 16 and 32 bridges and snapshots forwarding state per bridge.
func t6TableSize(spec Spec) ([]t6Row, error) {
	var rows []t6Row
	for _, n := range []int{8, 16, 32} {
		row := t6Row{hosts: n}
		var err error
		if row.arpPathMax, row.arpPathMean, err = t6Measure(spec.paperOptions(topo.ARPPath), n); err != nil {
			return nil, err
		}
		if row.stpMax, row.stpMean, err = t6Measure(spec.paperOptions(topo.STP), n); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func t6Measure(o topo.Options, n int) (maxLen int, meanLen float64, err error) {
	built, err := topo.Build(o, topo.TopologySpec{Family: "ring", N: n})
	if err != nil {
		return 0, 0, err
	}
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
		maxLen = max(maxLen, live)
	}
	return maxLen, float64(total) / float64(len(built.Bridges)), nil
}

func t6Table(rows []t6Row) *metrics.Table {
	t := metrics.NewTable("T6 — forwarding state per bridge, star traffic on a ring (after lock expiry)",
		"hosts", "arp-path max", "arp-path mean", "stp max", "stp mean")
	for _, r := range rows {
		t.AddRow(r.hosts, r.arpPathMax, fmt.Sprintf("%.1f", r.arpPathMean),
			r.stpMax, fmt.Sprintf("%.1f", r.stpMean))
	}
	return t
}
