package fabric

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/flowpath"
	"repro/internal/host/app"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// The matrix kind drives a seeded traffic matrix as TCP-lite transfers
// over the Spec's fabric — the workload that makes per-flow path
// diversity visible, where all-pairs pings only ever exercise one
// conversation at a time. The allpath kind is nine matrix runs: the
// All-Path scalability study's trade-off between forwarding-table size
// (per-host vs per-pair vs per-connection state), path diversity and
// delivered throughput, with only the protocol differing between them.

// The matrix's fixed shape: every flow moves flowBytes, the seeded
// arrival schedule spaces starts arrival apart on average, the hotspot
// pattern aims at hotspots destinations, and the pairs pattern weights
// host rank r by 1/r^skew.
const (
	flowBytes = 256 << 10
	arrival   = time.Millisecond
	hotspots  = 2
	skew      = 1.5
)

// pattern is one row of the matrix pattern table: keys are the workload
// keys the pattern reads besides everyPattern's, and draw draws n flows'
// host pairs over hosts hosts from the matrix's plan RNG.
type pattern struct {
	name string
	keys []string
	draw func(plan *rand.Rand, hosts, n int) []matrixFlow
}

// everyPattern are the workload keys every matrix pattern reads.
var everyPattern = []string{"kind", "pattern"}

// patterns is the pattern table, in the allpath table's order.
var patterns = []pattern{
	// Flows concentrate on a few hot destinations: the incast-flavoured
	// worst case for per-host tables.
	{name: "hotspot", keys: []string{"flows"},
		draw: func(plan *rand.Rand, hosts, n int) (flows []matrixFlow) {
			hot := plan.Perm(hosts)[:min(hotspots, hosts/2+1)]
			for range n {
				dst := hot[plan.Intn(len(hot))]
				src := plan.Intn(hosts)
				if src == dst {
					src = (src + 1) % hosts
				}
				flows = append(flows, matrixFlow{Src: src, Dst: dst})
			}
			return flows
		}},
	// Every host sends to exactly one partner and hears from exactly one:
	// the classic bisection-stress matrix, one flow per host.
	{name: "permutation",
		draw: func(plan *rand.Rand, hosts, _ int) (flows []matrixFlow) {
			perm := plan.Perm(hosts)
			// Repair fixed points by swapping with the next slot: a swap
			// keeps the map a bijection, where redirecting the self-map
			// alone would give one host two incoming flows and another
			// none. The swap cannot create a new fixed point: perm[j] ≠ i
			// while perm[i] == i.
			for i := range perm {
				if perm[i] == i {
					j := (i + 1) % hosts
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			for i, p := range perm {
				flows = append(flows, matrixFlow{Src: i, Dst: p})
			}
			return flows
		}},
	// Weighted random pairs, Zipf-like (rank weight ∝ 1/r^skew) over a
	// seeded host ordering: heavy talkers over a long tail.
	{name: "pairs", keys: []string{"flows"},
		draw: func(plan *rand.Rand, hosts, n int) (flows []matrixFlow) {
			order := plan.Perm(hosts)
			weights := make([]float64, hosts)
			total := 0.0
			for r := range weights {
				weights[r] = 1 / math.Pow(float64(r+1), skew)
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
			for range n {
				src, dst := draw(), draw()
				if src == dst {
					dst = (dst + 1) % hosts
				}
				flows = append(flows, matrixFlow{Src: src, Dst: dst})
			}
			return flows
		}},
}

func lookupPattern(name string) *pattern {
	for i := range patterns {
		if patterns[i].name == name {
			return &patterns[i]
		}
	}
	return nil
}

// matrixCheck refuses an unknown pattern and a key its pattern does not read.
func matrixCheck(s Spec) error {
	p := lookupPattern(s.Workload.Pattern)
	if p == nil {
		var names []string
		for _, p := range patterns {
			names = append(names, p.name)
		}
		return fmt.Errorf("spec: workload.pattern: matrix needs one of %v, got %q", names, s.Workload.Pattern)
	}
	return topo.CheckKeys(s.Workload, "spec: workload.", fmt.Sprintf("matrix pattern %q", p.name), everyPattern, p.keys)
}

// matrixFlow is one flow of a compiled matrix: host indices and a start
// offset from the matrix's seeded arrival schedule.
type matrixFlow struct {
	Src, Dst int
	Start    time.Duration
}

// buildMatrix compiles a defaulted matrix workload over hosts hosts from
// the seed. The plan stream is independent of any build or protocol, so
// one (workload, seed) drives the identical flows over every fabric.
func buildMatrix(w WorkloadSpec, hosts int, seed int64) []matrixFlow {
	plan := rand.New(rand.NewSource(seed*0x9E3779B9 + 7))
	flows := lookupPattern(w.Pattern).draw(plan, hosts, cmp.Or(w.Flows, hosts))
	at := time.Duration(0)
	for i := range flows {
		at += time.Duration(plan.ExpFloat64() * float64(arrival))
		flows[i].Start = at
	}
	return flows
}

// matrixRun is the outcome of driving one matrix over one fabric. All
// fields are deterministic: bit-identical at any shard count.
type matrixRun struct {
	Flows          int
	Completed      int           // TCP transfers that ran to completion
	DeliveredBytes int           // client-side received bytes
	FinishedAt     time.Duration // virtual time the last transfer completed
	TableEntries   int           // resident forwarding entries, summed over bridges
	TableMax       int           // largest single bridge table
	TrunkShareMax  float64       // busiest trunk's share of total trunk busy time
	EffTrunks      float64       // effective trunk count: 1 / Σ share² (inverse Herfindahl)
}

// matrixColumns head the cells matrixRun.cells renders.
var matrixColumns = []string{"flows", "completed", "delivered B", "finish (virt)", "table Σ", "table max", "eff trunks", "max trunk share"}

// cells is the run's table row.
func (m *matrixRun) cells() []any {
	return []any{m.Flows, m.Completed, m.DeliveredBytes, m.FinishedAt.Round(time.Microsecond),
		m.TableEntries, m.TableMax, fmt.Sprintf("%.1f", m.EffTrunks), fmt.Sprintf("%.3f", m.TrunkShareMax)}
}

// driveMatrix runs a compiled matrix as TCP-lite transfers over a built
// fabric (each flow a connection src→dst on its own port, started per
// the arrival schedule) and collects the deterministic outcome.
func driveMatrix(built *Built, flows []matrixFlow) *matrixRun {
	hostOf := func(i int) string { return fmt.Sprintf("H%d", i+1) }
	run := &matrixRun{Flows: len(flows)}

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
		srv := built.Host(hostOf(fl.Src))
		cli := built.Host(hostOf(fl.Dst))
		cfg := app.StreamConfig{Port: uint16(20000 + i), Size: flowBytes}
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

// matrix builds a defaulted matrix Spec's fabric and drives its matrix:
// the build → compile → drive path of the matrix and allpath kinds. A
// fabric without H1..Hn hosts is ErrIncomplete, said on out.
func matrix(spec Spec, out io.Writer) (*Built, *matrixRun, error) {
	opts, err := spec.Options()
	if err != nil {
		return nil, nil, err
	}
	built, err := BuildTopology(opts, spec.Topology)
	if err != nil {
		return nil, nil, err
	}
	hosts := len(numberedHosts(built))
	if hosts < 2 {
		fmt.Fprintln(out, "matrix needs H1..Hn hosts (use ring/grid/fattree/random families)")
		return nil, nil, ErrIncomplete
	}
	return built, driveMatrix(built, buildMatrix(spec.Workload, hosts, spec.Seed)), nil
}

// runMatrix drives a spec-level traffic matrix on the Spec's topology
// over whatever protocol the Spec names.
func (r *Runner) runMatrix(spec Spec, out io.Writer, res *Result) error {
	built, run, err := matrix(spec, out)
	if err != nil {
		return err
	}
	w := spec.Workload
	fmt.Fprintf(out, "topology=%s bridges=%d hosts=%d links=%d protocol=%s seed=%d pattern=%s\n\n",
		spec.Topology.Family, len(built.Bridges), len(built.Hosts), len(built.Links),
		spec.Protocol.Name, spec.Seed, w.Pattern)
	t := metrics.NewTable("traffic matrix ("+w.Pattern+")", matrixColumns...)
	t.AddRow(run.cells()...)
	r.emit(out, res, t)
	if run.Completed != run.Flows {
		fmt.Fprintf(out, "%d of %d transfers did not complete\n", run.Flows-run.Completed, run.Flows)
		return ErrIncomplete
	}
	return nil
}

// allPathProtocols are the All-Path comparison's protocols, table order.
var allPathProtocols = []topo.Protocol{topo.ARPPath, flowpath.ProtoFlowPath, flowpath.ProtoTCPPath}

// runAllPath is the All-Path comparison: one row per pattern and
// protocol, each the run of a matrix Spec on one degree-3 random-regular
// fabric of the kind's bridges at its seed and shards — same wiring, same
// matrix, only the protocol differs.
func (r *Runner) runAllPath(spec Spec, out io.Writer, res *Result) error {
	t := metrics.NewTable("All-Path family under spec-level traffic matrices (random-regular fabric; same seed, same matrix, only the protocol differs)",
		append([]string{"pattern", "protocol"}, matrixColumns...)...)
	for _, p := range patterns {
		w := WorkloadSpec{Kind: "matrix", Pattern: p.name}
		if slices.Contains(p.keys, "flows") {
			w.Flows = spec.Workload.Flows
		}
		for _, proto := range allPathProtocols {
			s, err := Spec{Seed: spec.Seed, Shards: spec.Shards, Workload: w,
				Topology: TopologySpec{Family: "random-regular", N: spec.Workload.Bridges, Degree: 3},
				Protocol: ProtocolSpec{Name: string(proto)}, observers: spec.observers}.WithDefaults()
			if err != nil {
				return err
			}
			_, run, err := matrix(s, out)
			if err != nil {
				return err
			}
			t.AddRow(append([]any{p.name, string(proto)}, run.cells()...)...)
		}
	}
	r.emit(out, res, t)
	return nil
}
