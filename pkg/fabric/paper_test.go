package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// paperSpec is the defaulted Spec of a paper kind at seed 1 on one engine.
func paperSpec(t *testing.T, w WorkloadSpec) Spec {
	t.Helper()
	s, err := Spec{Workload: w}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFigure2ShapeHolds(t *testing.T) {
	rows, err := figure2(paperSpec(t, WorkloadSpec{Kind: "figure2-demo", Pings: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 profiles × 2 protocols
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(p topo.Figure2Profile, proto topo.Protocol) figure2Row {
		for _, r := range rows {
			if r.profile == p && r.protocol == proto {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", p, proto)
		return figure2Row{}
	}

	for _, r := range rows {
		if r.lost != 0 {
			t.Fatalf("%s/%s lost %d pings", r.protocol, r.profile, r.lost)
		}
		if len(r.path) == 0 {
			t.Fatalf("%s/%s no path traced", r.protocol, r.profile)
		}
	}

	// The headline claim: with a latency-blind tree (slow diagonal), STP's
	// steady-state RTT is far above ARP-Path's.
	ap := get(topo.ProfileSlowDiagonal, topo.ARPPath)
	st := get(topo.ProfileSlowDiagonal, topo.STP)
	if ap.rtts.Mean() >= st.rtts.Mean() {
		t.Fatalf("ARP-Path (%v) not faster than STP (%v) on slow-diagonal",
			ap.rtts.Mean(), st.rtts.Mean())
	}
	if ratio := float64(st.rtts.Mean()) / float64(ap.rtts.Mean()); ratio < 3 {
		t.Fatalf("slow-diagonal ratio %.2f, want ≥ 3 (the diagonal is 50x slower)", ratio)
	}
	// STP's path must use the diagonal (NF1→NF4 directly); ARP-Path's must
	// detour through NF2 or NF3.
	stPath := strings.Join(st.path, "→")
	if !strings.Contains(stPath, "NF1→NF4") {
		t.Fatalf("STP path %q does not use the diagonal", stPath)
	}
	apPath := strings.Join(ap.path, "→")
	if !strings.Contains(apPath, "NF2") && !strings.Contains(apPath, "NF3") {
		t.Fatalf("ARP-Path path %q did not route around the slow diagonal", apPath)
	}

	// Uniform profile: both protocols find 4-bridge-hop paths; RTTs within
	// 2x of each other.
	apU := get(topo.ProfileUniform, topo.ARPPath)
	stU := get(topo.ProfileUniform, topo.STP)
	if apU.rtts.Mean() > 2*stU.rtts.Mean() || stU.rtts.Mean() > 2*apU.rtts.Mean() {
		t.Fatalf("uniform profile diverged: ap=%v stp=%v", apU.rtts.Mean(), stU.rtts.Mean())
	}

	// Asymmetric profile: ARP-Path at least as fast as STP.
	apA := get(topo.ProfileAsymmetric, topo.ARPPath)
	stA := get(topo.ProfileAsymmetric, topo.STP)
	if apA.rtts.Mean() > stA.rtts.Mean() {
		t.Fatalf("asymmetric: ARP-Path (%v) slower than STP (%v)", apA.rtts.Mean(), stA.rtts.Mean())
	}
}

func TestFigure2FirstPingIncludesDiscovery(t *testing.T) {
	rows, err := figure2(paperSpec(t, WorkloadSpec{Kind: "figure2-demo", Pings: 5}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.firstRTT <= r.rtts.Mean() {
			t.Fatalf("%s/%s first RTT %v not above steady-state %v (no ARP cost?)",
				r.protocol, r.profile, r.firstRTT, r.rtts.Mean())
		}
	}
}

func TestFigure3ARPPathRepairsFast(t *testing.T) {
	spec := paperSpec(t, WorkloadSpec{Kind: "path-repair", StreamSize: 8 << 20})
	res, err := figure3(spec.paperOptions(topo.ARPPath), spec.Workload, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.report == nil || !res.report.Complete {
		t.Fatal("stream did not complete under ARP-Path")
	}
	if len(res.failures) == 0 {
		t.Fatal("no failures were injected")
	}
	// §3.2: repair is fast with minimal effect on the video. Every repair
	// completes well under a second.
	for _, f := range res.failures {
		if f.repair > time.Second {
			t.Fatalf("repair after %s took %v", f.link, f.repair)
		}
	}
	if res.report.TotalStall > 2*time.Second {
		t.Fatalf("total stall %v too high for ARP-Path", res.report.TotalStall)
	}
}

func TestFigure3STPContrastSlower(t *testing.T) {
	spec := paperSpec(t, WorkloadSpec{Kind: "path-repair", StreamSize: 8 << 20, Failures: 1})
	ap, err := figure3(spec.paperOptions(topo.ARPPath), spec.Workload, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st, err := figure3(spec.paperOptions(topo.STP), spec.Workload, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.failures) == 0 {
		t.Fatal("STP run injected no failure")
	}
	if st.report == nil {
		t.Fatal("no STP report")
	}
	// STP reconvergence is tens of seconds; ARP-Path repair is not. The
	// shape claim: at least a 50x gap in recovery time.
	if len(ap.failures) == 0 || ap.failures[0].repair == 0 {
		t.Fatal("ARP-Path failure not observed")
	}
	if st.failures[0].repair < 10*time.Second {
		t.Fatalf("STP recovered in %v — implausibly fast for 802.1D defaults", st.failures[0].repair)
	}
	if ratio := float64(st.failures[0].repair) / float64(ap.failures[0].repair); ratio < 50 {
		t.Fatalf("recovery ratio %.1f, want ≥ 50", ratio)
	}
}

func TestT1PropertiesHold(t *testing.T) {
	rows, err := t1Properties(paperSpec(t, WorkloadSpec{Kind: "properties"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("trials = %d", len(rows))
	}
	for _, r := range rows {
		// Loop freedom: flood copies within the bound (trunk copies ≤ 2L,
		// plus one delivery per host link).
		bound := r.copyBound + uint64(r.bridges)
		if r.floodCopies > bound {
			t.Fatalf("trial %d: %d copies exceed bound %d", r.trial, r.floodCopies, bound)
		}
		if r.copiesToHost != 1 {
			t.Fatalf("trial %d: destination saw %d request copies", r.trial, r.copiesToHost)
		}
		// STP must block when the random graph has loops (extra ≥ 2).
		if r.links >= r.bridges && r.stpBlocked == 0 {
			t.Fatalf("trial %d: STP blocked nothing on a looped graph", r.trial)
		}
	}
}

func TestT2LoadDistribution(t *testing.T) {
	rs, err := t2Load(paperSpec(t, WorkloadSpec{Kind: "load"}))
	if err != nil {
		t.Fatal(err)
	}
	ap, st := rs[0], rs[1]
	// ARP-Path's spreading must deliver the large majority; STP funnels
	// four flows per pod through one aggregation uplink and tail-drops —
	// that concentration is exactly the §2.2 claim.
	if ap.delivered < ap.sent*90/100 {
		t.Fatalf("ARP-Path delivered %d/%d", ap.delivered, ap.sent)
	}
	if st.delivered >= ap.delivered {
		t.Fatalf("STP delivered %d ≥ ARP-Path %d — no concentration loss", st.delivered, ap.delivered)
	}
	// Path diversity: ARP-Path must use strictly more links than STP's
	// tree (whose active edges are at most bridges-1 plus host links).
	if ap.usedLinks <= st.usedLinks {
		t.Fatalf("ARP-Path used %d links, STP used %d — no diversity gain",
			ap.usedLinks, st.usedLinks)
	}
	// And spread load more evenly.
	if ap.jain <= st.jain {
		t.Fatalf("Jain: arp-path %.3f ≤ stp %.3f", ap.jain, st.jain)
	}
}

func TestT3ProxySuppression(t *testing.T) {
	rows, err := t3Proxy(paperSpec(t, WorkloadSpec{Kind: "proxy"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[[2]any]t3Row{}
	for _, r := range rows {
		byKey[[2]any{r.hosts, r.proxy}] = r
	}
	for _, n := range []int{4, 8, 16, 32} {
		off := byKey[[2]any{n, false}]
		on := byKey[[2]any{n, true}]
		if on.proxyReplies == 0 {
			t.Fatalf("n=%d: proxy never answered", n)
		}
		// §2.2: "ARP broadcast traffic can be reduced dramatically".
		if float64(on.warmBroadcasts) > 0.5*float64(off.warmBroadcasts) {
			t.Fatalf("n=%d: proxy cut broadcasts only %d→%d", n, off.warmBroadcasts, on.warmBroadcasts)
		}
	}
	// Suppression matters more as the fabric grows.
	off4 := byKey[[2]any{4, false}]
	off8 := byKey[[2]any{8, false}]
	if off8.perARP <= off4.perARP {
		t.Fatal("flood volume did not grow with fabric size")
	}
}

func TestT4RepairAblation(t *testing.T) {
	rows, err := t4Repair(paperSpec(t, WorkloadSpec{Kind: "repair"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]t4Row{}
	for _, r := range rows {
		byName[r.variant] = r
	}
	on := byName["arp-path (repair on)"]
	off := byName["arp-path (repair off)"]
	slow := byName["stp (default timers)"]
	fast := byName["stp (fast timers)"]

	completed := func(r t4Row) bool { return r.report != nil && r.report.Complete }
	if !completed(on) {
		t.Fatal("repair-on stream failed")
	}
	if completed(off) {
		t.Fatal("repair-off stream completed — blackhole did not blackhole")
	}
	if !completed(slow) || !completed(fast) {
		t.Fatal("STP streams should complete eventually")
	}
	// Ordering: arp-path ≪ stp-fast < stp-default.
	if on.repairTime() >= fast.repairTime() {
		t.Fatalf("arp-path repair %v not faster than fast STP %v", on.repairTime(), fast.repairTime())
	}
	if fast.repairTime() >= slow.repairTime() {
		t.Fatalf("fast STP %v not faster than default STP %v", fast.repairTime(), slow.repairTime())
	}
}

func TestT5LockWindowSweep(t *testing.T) {
	rows, err := t5LockWindow(paperSpec(t, WorkloadSpec{Kind: "lockwindow"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// 1 ms is far below the 8 ms flood traversal; 200 ms is the default.
	short, deflt := rows[0], rows[3]
	for _, r := range rows {
		if r.sent != 10 {
			t.Fatalf("%v window sent %d pings, want 10", r.lockTimeout, r.sent)
		}
	}
	// The default window must be clean: no losses, no repair storms.
	if deflt.lost != 0 {
		t.Fatalf("default window lost %d pings", deflt.lost)
	}
	// A window below the flood traversal must visibly degrade discovery:
	// replies meet expired entries, triggering repairs (path requests) or
	// drops; the fabric works noticeably harder than at the default.
	if short.repairs+short.srcPortDrops <= deflt.repairs+deflt.srcPortDrops {
		t.Fatalf("short window showed no degradation: short=%d+%d default=%d+%d",
			short.repairs, short.srcPortDrops, deflt.repairs, deflt.srcPortDrops)
	}
	// The storm column: at 1 ms a lapsed lock leaves a broadcast circling
	// the ring after the last ping; at 20 ms and 200 ms nothing floods.
	if short.storm == 0 {
		t.Fatal("1ms window: no broadcast delivered after the last ping, want the storm")
	}
	for _, r := range rows[2:] {
		if r.storm != 0 {
			t.Fatalf("%v window: %d broadcasts delivered after the last ping, want 0", r.lockTimeout, r.storm)
		}
	}
	t.Logf("broadcasts after the last ping: 1ms %d, 5ms %d", short.storm, rows[1].storm)
}

func TestT6TableSizeScaling(t *testing.T) {
	rows, err := t6TableSize(paperSpec(t, WorkloadSpec{Kind: "tablesize"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// STP learning switches remember every host they saw flood —
		// state grows with the host count at every bridge.
		if r.stpMean < float64(r.hosts)/2 {
			t.Fatalf("n=%d: STP mean %v implausibly small", r.hosts, r.stpMean)
		}
		// ARP-Path keeps only confirmed paths after the lock windows
		// expire; off-path bridges hold nothing about remote exchanges.
		if r.arpPathMean >= r.stpMean {
			t.Fatalf("n=%d: ARP-Path state %v not smaller than STP %v",
				r.hosts, r.arpPathMean, r.stpMean)
		}
		// And the gap should widen with fabric size.
		if i > 0 {
			prev := rows[i-1]
			if r.stpMean-r.arpPathMean <= prev.stpMean-prev.arpPathMean {
				t.Fatalf("state gap did not grow from n=%d to n=%d", prev.hosts, r.hosts)
			}
		}
	}
}

// The simulator's central promise, same seed ⇒ same run, is pinned by
// the goldens (examples/specs, TestSpecSmoke). Its other half: the
// execution mode is invisible. cell is one column of the determinism
// matrix — a way of running the same workload that may change nothing it
// renders and nothing in its trace.
type cell struct {
	shards int
	procs  int // GOMAXPROCS for the run; 0 leaves the ambient value
}

// matrixCells lists the columns; every row is held against the first. A
// new axis is a field of cell, a line in observe and the columns that
// vary it — not another test.
var matrixCells = []cell{
	{shards: 1},
	{shards: 2},
	{shards: 4, procs: 1},
	{shards: 4, procs: 2}, // more shards than processors
	{shards: 4, procs: 4},
}

// observation is what one (workload, cell) run is compared by: the bytes
// it rendered and the trace of every fabric it built — one
// fingerprint/events line each, build order, warm-up included.
type observation struct{ rendered, traces string }

// row is one workload of the matrix. It builds its fabrics at the shard
// count of o, the build half of its Spec, and returns everything it
// renders.
type row struct {
	name   string
	render func(t *testing.T, o topo.Options) string
}

// The second result is the coordinator's three deterministic counts per
// fabric. They depend on the shard count, so they are no part of the
// observation; cells that differ only in GOMAXPROCS must agree on them,
// and the scale rows must match scaleCoordPins.
func observe(t *testing.T, c cell, render func(*testing.T, topo.Options) string) (o observation, coord string) {
	if c.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	}
	var fps []*netsim.TapFingerprint
	var nets []*topo.Net
	prevHook := topo.OnBuilt
	topo.OnBuilt = func(n *topo.Net) {
		fp := netsim.NewTapFingerprint()
		n.Tap(fp.Observe)
		fps = append(fps, fp)
		nets = append(nets, n)
	}
	defer func() { topo.OnBuilt = prevHook }()

	opts := topo.DefaultOptions(topo.ARPPath, 1)
	opts.Shards = c.shards
	o.rendered = render(t, opts)
	for i, fp := range fps {
		o.traces += fmt.Sprintf("fabric %d: %#016x/%d events\n", i, fp.Sum(), fp.Events())
		cs := nets[i].CoordStats()
		coord += fmt.Sprintf("fabric %d: windows=%d barriers=%d exchanged=%d\n", i, cs.Windows, cs.Barriers, cs.Exchanged)
	}
	return o, coord
}

// at is o at seed.
func at(o topo.Options, seed int64) topo.Options {
	o.Seed = seed
	return o
}

// kindRow renders a kind's run at seed 9 and o's shard count.
func kindRow(kind string) func(*testing.T, topo.Options) string {
	return func(t *testing.T, o topo.Options) string {
		_, out := runToBuffer(t, Runner{Spec: Spec{Seed: 9, Shards: o.Shards, Workload: WorkloadSpec{Kind: kind}}})
		return out
	}
}

// smallScale keeps the scale rows fast: a 32-bridge fabric with a short
// traffic window; observe fingerprints its trace like every row's.
// Synchronized CBR flows are the worst case for same-timestamp key
// windows, hence the seed sweep.
func smallScale(seed int64) func(*testing.T, topo.Options) string {
	return func(t *testing.T, o topo.Options) string {
		cfg := experiments.DefaultScaleConfig()
		cfg.Bridges = 32
		cfg.Flows = 16
		cfg.Window = 30 * time.Millisecond
		r := experiments.RunScale(at(o, seed), cfg)
		if r.Delivered == 0 {
			t.Fatalf("degenerate run: %+v", r)
		}
		r.Shards = 0 // the one table column that names the cell
		return experiments.ScaleTable([]*experiments.ScaleResult{r}).String()
	}
}

// scaleCoordPins are the scale rows' coordinator counts at 2 and 4 shards.
// Traces survive a window bound that is merely too tight, so only these
// counts catch a pending minimum that drifted — say, an arrival's key read
// after its record was consumed.
var scaleCoordPins = map[string]map[int]string{
	"scale-seed3":  {2: "windows=2753 barriers=32 exchanged=3162", 4: "windows=1991 barriers=32 exchanged=7067"},
	"scale-seed5":  {2: "windows=2602 barriers=32 exchanged=3857", 4: "windows=3984 barriers=32 exchanged=5498"},
	"scale-seed11": {2: "windows=5178 barriers=32 exchanged=3555", 4: "windows=8555 barriers=32 exchanged=6823"},
	"scale-seed12": {2: "windows=11306 barriers=32 exchanged=2616", 4: "windows=3677 barriers=32 exchanged=6766"},
	"scale-seed13": {2: "windows=4576 barriers=32 exchanged=8514", 4: "windows=4266 barriers=32 exchanged=7359"},
	"scale-seed14": {2: "windows=10993 barriers=32 exchanged=3264", 4: "windows=9759 barriers=32 exchanged=4322"},
	"scale-seed15": {2: "windows=11583 barriers=32 exchanged=4843", 4: "windows=4876 barriers=32 exchanged=6980"},
}

// TestDeterminismMatrix is the tree's one execution-mode differential:
// every workload row must render byte-identical output — tables, the
// tables sweep's JSON artifact — and produce the identical trace
// fingerprint in every cell: any shard count, any GOMAXPROCS. Cells of
// one shard count also agree on how many windows, barriers and
// cross-shard arrivals the coordinator counted, and the scale rows count
// exactly their pins.
func TestDeterminismMatrix(t *testing.T) {
	rows := []row{
		{"figure1", kindRow("figure1")},
		{"t1-properties", kindRow("properties")},
		{"t5-lock-window", kindRow("lockwindow")},
		// Eviction decisions, re-discovery storms and flood counts included.
		{"tables", func(t *testing.T, o topo.Options) string {
			rs := experiments.RunTablesSharded(experiments.DefaultTablesConfig(13, 400), o)
			js, err := experiments.TablesJSON(rs)
			if err != nil {
				t.Fatal(err)
			}
			return experiments.TablesTable(rs).String() + string(js)
		}},
	}
	for _, seed := range []int64{3, 5, 11, 12, 13, 14, 15} {
		rows = append(rows, row{fmt.Sprintf("scale-seed%d", seed), smallScale(seed)})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref, _ := observe(t, matrixCells[0], row.render)
			if ref.traces == "" {
				t.Fatalf("degenerate reference run: no fabric was traced")
			}
			coordAt := map[int]string{} // shard count → the first such cell's counts
			for _, c := range matrixCells[1:] {
				got, coord := observe(t, c, row.render)
				if got != ref {
					t.Errorf("%+v diverged from %+v:\n%s%s\nwant:\n%s%s",
						c, matrixCells[0], got.traces, got.rendered, ref.traces, ref.rendered)
				}
				if want, pinned := scaleCoordPins[row.name][c.shards]; pinned && coord != "fabric 0: "+want+"\n" {
					t.Errorf("%+v: coordinator counts %qwant %q", c, coord, want)
				}
				if first, seen := coordAt[c.shards]; !seen {
					coordAt[c.shards] = coord
				} else if coord != first {
					t.Errorf("%+v: coordinator counts moved with GOMAXPROCS:\n%swant:\n%s", c, coord, first)
				}
			}
		})
	}
}
