package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/host/app"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topo"

	_ "repro/internal/flowpath" // registers flowpath/tcppath for the comparison
)

// This file is the All-Path comparative experiment: the same seeded
// traffic matrix driven over fabrics bridged by ARP-Path, Flow-Path and
// TCP-Path, measuring the axes the scalability study trades against each
// other — forwarding-table size (per-host vs per-pair vs per-connection
// state), path diversity (how many distinct trunks carry the load and
// how evenly), and delivered throughput. Everything reported here is
// deterministic: a function of the seed alone, bit-identical at any
// shard count, which is what lets examples/specs/allpath.golden pin the
// table and the nine fabrics' folded trace fingerprint at -shards 1 and 4.

// MatrixPattern names a spec-level traffic matrix shape.
type MatrixPattern string

// Matrix patterns.
const (
	// MatrixHotspot concentrates flows on a few hot destinations (the
	// incast-flavoured worst case for per-host tables).
	MatrixHotspot MatrixPattern = "hotspot"
	// MatrixPermutation pairs every host with exactly one partner (the
	// classic bisection-stress matrix).
	MatrixPermutation MatrixPattern = "permutation"
	// MatrixPairs draws weighted random pairs with a Zipf-like skew
	// (heavy talkers over a long tail).
	MatrixPairs MatrixPattern = "pairs"
)

// MatrixPatterns lists the patterns, sweep order.
func MatrixPatterns() []MatrixPattern {
	return []MatrixPattern{MatrixHotspot, MatrixPermutation, MatrixPairs}
}

// MatrixConfig parameterizes a traffic matrix over hosts 0..Hosts-1.
type MatrixConfig struct {
	Pattern MatrixPattern
	Hosts   int
	// Flows is the flow count for hotspot/pairs (permutation always has
	// exactly Hosts flows).
	Flows int
	// Hotspots is how many hot destinations the hotspot pattern uses.
	Hotspots int
	// Skew is the pairs pattern's Zipf exponent (rank weight ∝ 1/r^Skew).
	Skew float64
	// Bytes is the per-flow transfer size.
	Bytes int
	// Arrival is the mean spacing of the seeded flow arrival schedule
	// (exponential inter-arrivals drawn from the plan stream).
	Arrival time.Duration
}

// WithDefaults fills unset fields, Hotspots and Skew only for the
// pattern that reads them.
func (c MatrixConfig) WithDefaults() MatrixConfig {
	if c.Pattern == "" {
		c.Pattern = MatrixHotspot
	}
	if c.Flows == 0 {
		c.Flows = c.Hosts
	}
	if c.Hotspots == 0 && c.Pattern == MatrixHotspot {
		c.Hotspots = 2
	}
	if c.Skew == 0 && c.Pattern == MatrixPairs {
		c.Skew = 1.5
	}
	if c.Bytes == 0 {
		c.Bytes = 256 << 10
	}
	if c.Arrival == 0 {
		c.Arrival = time.Millisecond
	}
	return c
}

// MatrixFlow is one flow of a compiled matrix: host indices, a start
// offset from the matrix's seeded arrival schedule, and a size.
type MatrixFlow struct {
	Src, Dst int
	Start    time.Duration
	Bytes    int
}

// BuildMatrix compiles a matrix deterministically from the seed. The
// plan stream is independent of any build or protocol, so the same
// (config, seed) drives the identical workload over every fabric of the
// comparison.
func BuildMatrix(cfg MatrixConfig, seed int64) []MatrixFlow {
	cfg = cfg.WithDefaults()
	if cfg.Hosts < 2 {
		panic("experiments: matrix needs at least two hosts")
	}
	plan := rand.New(rand.NewSource(seed*0x9E3779B9 + 7))
	var flows []MatrixFlow
	switch cfg.Pattern {
	case MatrixHotspot:
		hot := plan.Perm(cfg.Hosts)[:min(cfg.Hotspots, cfg.Hosts/2+1)]
		for i := 0; i < cfg.Flows; i++ {
			dst := hot[plan.Intn(len(hot))]
			src := plan.Intn(cfg.Hosts)
			if src == dst {
				src = (src + 1) % cfg.Hosts
			}
			flows = append(flows, MatrixFlow{Src: src, Dst: dst})
		}
	case MatrixPermutation:
		perm := plan.Perm(cfg.Hosts)
		// Repair fixed points by swapping with the next slot: a swap
		// keeps the map a bijection (every host exactly one partner, in
		// and out), where redirecting the self-map alone would give one
		// host two incoming flows and another none. The swap cannot
		// create a new fixed point: perm[j] ≠ i while perm[i] == i.
		for i := range perm {
			if perm[i] == i {
				j := (i + 1) % cfg.Hosts
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		for i, p := range perm {
			flows = append(flows, MatrixFlow{Src: i, Dst: p})
		}
	case MatrixPairs:
		// Zipf-like rank weights over a seeded host ordering.
		order := plan.Perm(cfg.Hosts)
		weights := make([]float64, cfg.Hosts)
		total := 0.0
		for r := range weights {
			weights[r] = 1 / math.Pow(float64(r+1), cfg.Skew)
			total += weights[r]
		}
		draw := func() int {
			x := plan.Float64() * total
			for r, w := range weights {
				if x -= w; x <= 0 {
					return order[r]
				}
			}
			return order[len(order)-1]
		}
		for i := 0; i < cfg.Flows; i++ {
			src, dst := draw(), draw()
			if src == dst {
				dst = (dst + 1) % cfg.Hosts
			}
			flows = append(flows, MatrixFlow{Src: src, Dst: dst})
		}
	default:
		panic(fmt.Sprintf("experiments: unknown matrix pattern %q", cfg.Pattern))
	}
	at := time.Duration(0)
	for i := range flows {
		at += time.Duration(plan.ExpFloat64() * float64(cfg.Arrival))
		flows[i].Start = at
		flows[i].Bytes = cfg.Bytes
	}
	return flows
}

// MatrixRun is the outcome of driving one matrix over one fabric. All
// fields are deterministic.
type MatrixRun struct {
	Flows          int
	Completed      int           // TCP transfers that ran to completion
	DeliveredBytes int           // client-side received bytes
	FinishedAt     time.Duration // virtual time the last transfer completed
	TableEntries   int           // resident forwarding entries, summed over bridges
	TableMax       int           // largest single bridge table
	TrunkShareMax  float64       // busiest trunk's share of total trunk busy time
	EffTrunks      float64       // effective trunk count: 1 / Σ share² (inverse Herfindahl)
}

// DriveMatrix runs a compiled matrix as TCP-lite transfers over a built
// fabric (each flow a connection src→dst on its own port, started per
// the arrival schedule) and collects the deterministic outcome.
func DriveMatrix(built *topo.Built, flows []MatrixFlow) *MatrixRun {
	hostOf := func(i int) string { return fmt.Sprintf("H%d", i+1) }
	run := &MatrixRun{Flows: len(flows)}

	// Trunk utilization is measured as the delta over the run, so warm-up
	// HELLOs (which touch every trunk once) do not drown the diversity
	// signal.
	busyBefore := make(map[*netsim.Link]time.Duration, len(built.Links))
	for _, l := range built.Links {
		busyBefore[l] = l.BusyTime(l.A()) + l.BusyTime(l.B())
	}

	reports := make([]*app.StreamReport, len(flows))
	base := built.Now()
	for i, fl := range flows {
		i, fl := i, fl
		srv := built.Host(hostOf(fl.Src))
		cli := built.Host(hostOf(fl.Dst))
		cfg := app.StreamConfig{
			Port:           uint16(20000 + i),
			Size:           fl.Bytes,
			Bucket:         50 * time.Millisecond,
			StallThreshold: 100 * time.Millisecond,
		}
		built.Engine.At(base+fl.Start, func() {
			app.StartStream(srv, cli, cfg, func(r *app.StreamReport) { reports[i] = r })
		})
	}
	built.RunFor(30 * time.Second)
	built.Run()

	for _, r := range reports {
		if r == nil {
			continue
		}
		run.DeliveredBytes += r.Received
		if r.Complete {
			run.Completed++
			if r.Finished > run.FinishedAt {
				run.FinishedAt = r.Finished
			}
		}
	}
	for _, br := range built.Bridges {
		n := 0
		for _, t := range br.PathTables() {
			n += t.Len()
		}
		run.TableEntries += n
		run.TableMax = max(run.TableMax, n)
	}
	// Links is a map: iterate in sorted name order so the floating-point
	// share accumulation below is bit-identical run to run.
	names := make([]string, 0, len(built.Links))
	for name := range built.Links {
		names = append(names, name)
	}
	sort.Strings(names)
	var total, max time.Duration
	var trunkBusy []time.Duration
	for _, name := range names {
		l := built.Links[name]
		if !built.IsTrunk(l) {
			continue
		}
		busy := l.BusyTime(l.A()) + l.BusyTime(l.B()) - busyBefore[l]
		if busy > 0 {
			trunkBusy = append(trunkBusy, busy)
			total += busy
			if busy > max {
				max = busy
			}
		}
	}
	if total > 0 {
		run.TrunkShareMax = float64(max) / float64(total)
		hhi := 0.0
		for _, b := range trunkBusy {
			share := float64(b) / float64(total)
			hhi += share * share
		}
		run.EffTrunks = 1 / hhi
	}
	return run
}

// AllPathProtocols is the comparison set, report order.
func AllPathProtocols() []topo.Protocol {
	return []topo.Protocol{"arppath", "flowpath", "tcppath"}
}

// AllPathResult is one protocol's leg of the comparison.
type AllPathResult struct {
	Protocol topo.Protocol
	Pattern  MatrixPattern
	Run      *MatrixRun
}

// AllPathConfig parameterizes the comparative experiment.
type AllPathConfig struct {
	Seed    int64
	Bridges int // random-regular fabric size (even)
	Degree  int
	Flows   int
}

// RunAllPath drives every (protocol, pattern) pairing: same seed, same
// wiring, same matrix — only the bridging protocol differs.
func RunAllPath(cfg AllPathConfig) []*AllPathResult {
	var results []*AllPathResult
	for _, pattern := range MatrixPatterns() {
		flows := BuildMatrix(MatrixConfig{
			Pattern: pattern, Hosts: cfg.Bridges, Flows: cfg.Flows,
		}, cfg.Seed)
		for _, proto := range AllPathProtocols() {
			built := topo.RandomRegular(expOptions(proto, cfg.Seed), cfg.Bridges, cfg.Degree)
			run := DriveMatrix(built, flows)
			finishNet(built)
			results = append(results, &AllPathResult{Protocol: proto, Pattern: pattern, Run: run})
		}
	}
	return results
}

// AllPathTable renders the comparison. Every cell is deterministic:
// bit-identical at any shard count and GOMAXPROCS.
func AllPathTable(rs []*AllPathResult) *metrics.Table {
	t := metrics.NewTable("All-Path family under spec-level traffic matrices (random-regular fabric; same seed, same matrix, only the protocol differs)",
		"pattern", "protocol", "flows", "completed", "delivered B", "finish (virt)", "table Σ", "table max", "eff trunks", "max trunk share")
	for _, r := range rs {
		t.AddRow(string(r.Pattern), string(r.Protocol), r.Run.Flows, r.Run.Completed,
			r.Run.DeliveredBytes, r.Run.FinishedAt.Round(time.Microsecond),
			r.Run.TableEntries, r.Run.TableMax, fmt.Sprintf("%.1f", r.Run.EffTrunks),
			fmt.Sprintf("%.3f", r.Run.TrunkShareMax))
	}
	return t
}
