package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

// paper is the build half of a paper row's Spec at seed, on one engine.
func paper(seed int64) topo.Options {
	return defaults(topo.Options{Seed: seed, Shards: 1}, topo.ARPPath)
}

// TestFigure1LocksAndPath pins Figure 1 byte for byte: every bridge's
// lock on S, S's ARP round trip and the confirmed S→D path. After an
// intentional behaviour change, regenerate testdata/figure1.golden from
// the "got" block of the failure.
func TestFigure1LocksAndPath(t *testing.T) {
	res := RunFigure1(paper(1))
	got := fmt.Sprintf("%sdiscovery %v\npath %s\n", res.Table(), res.DiscoveryTime, strings.Join(res.Path, "→"))
	want, err := os.ReadFile("testdata/figure1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Figure 1 diverged from testdata/figure1.golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	cfg := DefaultFigure2Config()
	cfg.Pings = 10
	rows := RunFigure2(paper(1), cfg)
	if len(rows) != 6 { // 3 profiles × 2 protocols
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(p topo.Figure2Profile, proto topo.Protocol) Figure2Row {
		for _, r := range rows {
			if r.Profile == p && r.Protocol == proto {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", p, proto)
		return Figure2Row{}
	}

	for _, r := range rows {
		if r.Lost != 0 {
			t.Fatalf("%s/%s lost %d pings", r.Protocol, r.Profile, r.Lost)
		}
		if len(r.Path) == 0 {
			t.Fatalf("%s/%s no path traced", r.Protocol, r.Profile)
		}
	}

	// The headline claim: with a latency-blind tree (slow diagonal), STP's
	// steady-state RTT is far above ARP-Path's.
	ap := get(topo.ProfileSlowDiagonal, topo.ARPPath)
	st := get(topo.ProfileSlowDiagonal, topo.STP)
	if ap.RTTs.Mean() >= st.RTTs.Mean() {
		t.Fatalf("ARP-Path (%v) not faster than STP (%v) on slow-diagonal",
			ap.RTTs.Mean(), st.RTTs.Mean())
	}
	if ratio := float64(st.RTTs.Mean()) / float64(ap.RTTs.Mean()); ratio < 3 {
		t.Fatalf("slow-diagonal ratio %.2f, want ≥ 3 (the diagonal is 50x slower)", ratio)
	}
	// STP's path must use the diagonal (NF1→NF4 directly); ARP-Path's must
	// detour through NF2 or NF3.
	stPath := strings.Join(st.Path, "→")
	if !strings.Contains(stPath, "NF1→NF4") {
		t.Fatalf("STP path %q does not use the diagonal", stPath)
	}
	apPath := strings.Join(ap.Path, "→")
	if !strings.Contains(apPath, "NF2") && !strings.Contains(apPath, "NF3") {
		t.Fatalf("ARP-Path path %q did not route around the slow diagonal", apPath)
	}

	// Uniform profile: both protocols find 4-bridge-hop paths; RTTs within
	// 2x of each other.
	apU := get(topo.ProfileUniform, topo.ARPPath)
	stU := get(topo.ProfileUniform, topo.STP)
	if apU.RTTs.Mean() > 2*stU.RTTs.Mean() || stU.RTTs.Mean() > 2*apU.RTTs.Mean() {
		t.Fatalf("uniform profile diverged: ap=%v stp=%v", apU.RTTs.Mean(), stU.RTTs.Mean())
	}

	// Asymmetric profile: ARP-Path at least as fast as STP.
	apA := get(topo.ProfileAsymmetric, topo.ARPPath)
	stA := get(topo.ProfileAsymmetric, topo.STP)
	if apA.RTTs.Mean() > stA.RTTs.Mean() {
		t.Fatalf("asymmetric: ARP-Path (%v) slower than STP (%v)", apA.RTTs.Mean(), stA.RTTs.Mean())
	}

	// Render paths don't crash and carry the data.
	if Figure2Table(rows).Rows() != 6 || Figure2Speedups(rows).Rows() != 3 {
		t.Fatal("table rendering")
	}
}

func TestFigure2FirstPingIncludesDiscovery(t *testing.T) {
	cfg := DefaultFigure2Config()
	cfg.Pings = 5
	cfg.Profiles = []topo.Figure2Profile{topo.ProfileUniform}
	rows := RunFigure2(paper(1), cfg)
	for _, r := range rows {
		if r.FirstRTT <= r.RTTs.Mean() {
			t.Fatalf("%s first RTT %v not above steady-state %v (no ARP cost?)",
				r.Protocol, r.FirstRTT, r.RTTs.Mean())
		}
	}
}

func TestFigure3ARPPathRepairsFast(t *testing.T) {
	cfg := DefaultFigure3Config()
	cfg.StreamSize = 8 << 20
	res := RunFigure3(paper(1), cfg)
	if res.Report == nil || !res.Report.Complete {
		t.Fatal("stream did not complete under ARP-Path")
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures were injected")
	}
	// §3.2: repair is fast with minimal effect on the video. Every repair
	// completes well under a second.
	for _, f := range res.Failures {
		if f.RepairTime > time.Second {
			t.Fatalf("repair after %s took %v", f.Link, f.RepairTime)
		}
	}
	if res.Report.TotalStall > 2*time.Second {
		t.Fatalf("total stall %v too high for ARP-Path", res.Report.TotalStall)
	}
}

func TestFigure3STPContrastSlower(t *testing.T) {
	cfg := DefaultFigure3Config()
	cfg.StreamSize = 8 << 20
	cfg.Failures = 1
	ap := RunFigure3(paper(1), cfg)
	st := RunFigure3(defaults(paper(1), topo.STP), cfg)
	if len(st.Failures) == 0 {
		t.Fatal("STP run injected no failure")
	}
	if st.Report == nil {
		t.Fatal("no STP report")
	}
	// STP reconvergence is tens of seconds; ARP-Path repair is not. The
	// shape claim: at least a 50x gap in recovery time.
	if len(ap.Failures) == 0 || ap.Failures[0].RepairTime == 0 {
		t.Fatal("ARP-Path failure not observed")
	}
	if st.Failures[0].RepairTime < 10*time.Second {
		t.Fatalf("STP recovered in %v — implausibly fast for 802.1D defaults", st.Failures[0].RepairTime)
	}
	if ratio := float64(st.Failures[0].RepairTime) / float64(ap.Failures[0].RepairTime); ratio < 50 {
		t.Fatalf("recovery ratio %.1f, want ≥ 50", ratio)
	}
	if Figure3Table([]*Figure3Result{ap, st}).Rows() != 2 {
		t.Fatal("table rendering")
	}
}

func TestT1PropertiesHold(t *testing.T) {
	rows := RunT1Properties(paper(1), 4)
	if len(rows) != 4 {
		t.Fatalf("trials = %d", len(rows))
	}
	for _, r := range rows {
		// Loop freedom: flood copies within the bound (trunk copies ≤ 2L,
		// plus one delivery per host link).
		bound := r.CopyBound + uint64(r.Bridges)
		if r.FloodCopies > bound {
			t.Fatalf("trial %d: %d copies exceed bound %d", r.Trial, r.FloodCopies, bound)
		}
		if r.CopiesToHost != 1 {
			t.Fatalf("trial %d: destination saw %d request copies", r.Trial, r.CopiesToHost)
		}
		if r.BlockedPorts != 0 {
			t.Fatal("ARP-Path blocked a port")
		}
		// STP must block when the random graph has loops (extra ≥ 2).
		if r.Links >= r.Bridges && r.STPBlocked == 0 {
			t.Fatalf("trial %d: STP blocked nothing on a looped graph", r.Trial)
		}
	}
	if T1Table(rows).Rows() != 4 {
		t.Fatal("table rendering")
	}
}

func TestT2LoadDistribution(t *testing.T) {
	ap := RunT2Load(paper(1), topo.ARPPath)
	st := RunT2Load(paper(1), topo.STP)
	// ARP-Path's spreading must deliver the large majority; STP funnels
	// four flows per pod through one aggregation uplink and tail-drops —
	// that concentration is exactly the §2.2 claim.
	if ap.Delivered < ap.Sent*90/100 {
		t.Fatalf("ARP-Path delivered %d/%d", ap.Delivered, ap.Sent)
	}
	if st.Delivered >= ap.Delivered {
		t.Fatalf("STP delivered %d ≥ ARP-Path %d — no concentration loss", st.Delivered, ap.Delivered)
	}
	// Path diversity: ARP-Path must use strictly more links than STP's
	// tree (whose active edges are at most bridges-1 plus host links).
	if ap.UsedLinks <= st.UsedLinks {
		t.Fatalf("ARP-Path used %d links, STP used %d — no diversity gain",
			ap.UsedLinks, st.UsedLinks)
	}
	// And spread load more evenly.
	if ap.Jain <= st.Jain {
		t.Fatalf("Jain: arp-path %.3f ≤ stp %.3f", ap.Jain, st.Jain)
	}
	if T2Table([]*T2Result{ap, st}).Rows() != 2 {
		t.Fatal("table rendering")
	}
}

func TestT3ProxySuppression(t *testing.T) {
	rows := RunT3Proxy(paper(1), []int{4, 8})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[[2]any]T3Row{}
	for _, r := range rows {
		byKey[[2]any{r.Hosts, r.Proxy}] = r
	}
	for _, n := range []int{4, 8} {
		off := byKey[[2]any{n, false}]
		on := byKey[[2]any{n, true}]
		if on.ProxyReplies == 0 {
			t.Fatalf("n=%d: proxy never answered", n)
		}
		// §2.2: "ARP broadcast traffic can be reduced dramatically".
		if float64(on.WarmBroadcasts) > 0.5*float64(off.WarmBroadcasts) {
			t.Fatalf("n=%d: proxy cut broadcasts only %d→%d", n, off.WarmBroadcasts, on.WarmBroadcasts)
		}
	}
	// Suppression matters more as the fabric grows.
	off4 := byKey[[2]any{4, false}]
	off8 := byKey[[2]any{8, false}]
	if off8.PerARP <= off4.PerARP {
		t.Fatal("flood volume did not grow with fabric size")
	}
	if T3Table(rows).Rows() != 4 {
		t.Fatal("table rendering")
	}
}

func TestT4RepairAblation(t *testing.T) {
	rows := RunT4Repair(paper(1))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]T4Row{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	on := byName["arp-path (repair on)"]
	off := byName["arp-path (repair off)"]
	slow := byName["stp (default timers)"]
	fast := byName["stp (fast timers)"]

	completed := func(r T4Row) bool { return r.Report != nil && r.Report.Complete }
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
	if on.RepairTime() >= fast.RepairTime() {
		t.Fatalf("arp-path repair %v not faster than fast STP %v", on.RepairTime(), fast.RepairTime())
	}
	if fast.RepairTime() >= slow.RepairTime() {
		t.Fatalf("fast STP %v not faster than default STP %v", fast.RepairTime(), slow.RepairTime())
	}
	if T4Table(rows).Rows() != 4 {
		t.Fatal("table rendering")
	}
}
