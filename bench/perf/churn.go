package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// discovery_churn: the three path tables on their write path. One sweep
// is experiments.RunTables — three All-Path variants (per-host, per-pair,
// per-connection tables) times four capacity points on an 8-bridge fabric,
// every conversation an ARP discovery flood, a TCP-lite open and a first
// data segment: lock, learn, evict, sweep, frame clones per flood port,
// lock-window and repair timers. The op is one completed conversation.
//
// RunTables is the one exported entry; its cells are timed from outside
// through the two driver hooks the tree already exports (topo.OnBuilt is
// not needed untraced; experiments.OnNetworkDone fires as each cell's
// measurements complete).

type churnSize struct {
	conversations int // per cell, timed sweeps
	setupReps     int
	// pinnedConversations is the traced run's full-size sweep, whose every
	// cell must equal the committed bench/BENCH_tables.json row at seed 1.
	pinnedConversations int
}

func churn(name string, sz churnSize) workload {
	return workload{
		name:   name,
		timed:  func(cfg runConfig) (*outcome, error) { return churnTimed(cfg, sz) },
		traced: func(cfg runConfig, o *outcome, tr *tracer) error { return churnTraced(cfg, sz, o, tr) },
	}
}

// sweep runs one RunTables sweep and returns one quantum per cell plus the
// cells' results. onCell, when set, sees each cell's fabric as it finishes.
//
// The op is one conversation simulated to its outcome. Under the unbounded
// and the LRU tables every conversation must complete, at every seed; a
// shortfall there is a failed op. The clock policy evicts about 1% of
// paths between a conversation's open and its first data segment — at
// every seed and in the committed bench/BENCH_tables.json alike — which is
// a simulated outcome, pinned as an exact count, not a failure of the
// simulator. Every cell must end with no pooled frame live.
func sweep(o *outcome, seed int64, conversations int, onCell func(*topo.Built)) ([]quantum, []*experiments.TablesResult) {
	var walls []time.Duration
	var live int64
	last := time.Now()
	experiments.OnNetworkDone = func(b *topo.Built) {
		now := time.Now()
		walls = append(walls, now.Sub(last))
		live += b.LiveFrames()
		if onCell != nil {
			onCell(b)
		}
		last = time.Now()
	}
	defer func() { experiments.OnNetworkDone = nil }()
	results := experiments.RunTables(experiments.DefaultTablesConfig(seed, conversations))
	qs := make([]quantum, len(results))
	for i, r := range results {
		run := r.Run
		qs[i] = quantum{wall: walls[i], ops: int64(run.Conversations)}
		o.attempted += int64(run.Conversations)
		switch lost := run.Conversations - run.Completed; {
		case lost == 0:
		case r.Policy != "clock":
			o.failed += int64(lost)
			o.problemf("%s/%s/%d completed %d of %d conversations", r.Variant, r.Policy, r.Capacity, run.Completed, run.Conversations)
		case lost*20 > run.Conversations:
			o.problemf("%s/clock/%d cut short %d of %d conversations, more than 5%%", r.Variant, r.Capacity, lost, run.Conversations)
		}
	}
	if live += netsim.LiveFrames(); live != 0 {
		o.problemf("%d frames still live after the sweep", live)
	}
	return qs, results
}

// cellKey names one cell's exact counts.
func cellKey(r *experiments.TablesResult, field string) string {
	return fmt.Sprintf("cell.%s.%s.%d.%s", r.Variant, r.Policy, r.Capacity, field)
}

func exactCells(o *outcome, results []*experiments.TablesResult) {
	for _, r := range results {
		o.exact[cellKey(r, "events")] = int64(r.Run.Events)
		o.exact[cellKey(r, "completed")] = int64(r.Run.Completed)
		o.exact[cellKey(r, "evictions")] = int64(r.Run.Evictions)
		o.exact[cellKey(r, "resident")] = int64(r.Run.ResidentTotal)
		o.exact[cellKey(r, "floods")] = int64(r.Run.Floods)
	}
}

func churnTimed(cfg runConfig, sz churnSize) (*outcome, error) {
	o := newOutcome()
	// Set-up is everything a sweep does besides conversations: the
	// schedule, twelve fabric builds, warm-ups and teardowns — a sweep of
	// one conversation.
	_, setupS, _ := medianSetup(sz.setupReps, func() (struct{}, error) {
		experiments.RunTables(experiments.DefaultTablesConfig(cfg.seed, 1))
		return struct{}{}, nil
	}, nil)
	o.metrics["setup_s"] = setupS

	// Sweeps repeat the same seed: identical work, so their results must
	// be identical, and a cell's wall times differ only by what the host
	// added. The rate is the sweep's conversations over the sum of every
	// cell's quickest time (n = sweeps after the warm one, about thirteen).
	var best []quantum
	var first []*experiments.TablesResult
	deadline := time.Now().Add(seconds(cfg.seconds))
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		qs, results := sweep(o, cfg.seed, sz.conversations, nil)
		if n == 0 {
			first = results
			exactCells(o, results)
			continue // the warm sweep
		}
		for i, r := range results {
			if *r.Run != *first[i].Run {
				o.problemf("sweep %d cell %d differs from the first sweep of the same seed", n, i)
			}
		}
		if best == nil {
			best = qs
		}
		for i, q := range qs {
			best[i].wall = min(best[i].wall, q.wall)
		}
	}
	o.metrics["ops_per_sec"] = 1e9 / nsPerOp(best)
	return o, nil
}

//go:embed expected_tables.json
var expectedTablesJSON []byte

// tablesRow is one row of bench/BENCH_tables.json (copied beside this
// file as expected_tables.json; the benchmark reads nothing outside its
// own directory).
type tablesRow struct {
	Variant       string `json:"variant"`
	Policy        string `json:"policy"`
	Capacity      int    `json:"capacity"`
	Conversations int    `json:"conversations"`
	Completed     int    `json:"completed"`
	Revisited     int    `json:"revisited"`
	Entries       int    `json:"entries_total"`
	Resident      int    `json:"resident_total"`
	Peak          int    `json:"peak_entries_max"`
	Evictions     uint64 `json:"evictions_total"`
	Floods        uint64 `json:"floods_relayed"`
	Rediscoveries uint64 `json:"rediscoveries"`
	Events        uint64 `json:"events"`
}

func rowOf(r *experiments.TablesResult) tablesRow {
	return tablesRow{
		Variant: string(r.Variant), Policy: r.Policy, Capacity: r.Capacity,
		Conversations: r.Run.Conversations, Completed: r.Run.Completed, Revisited: r.Run.Revisited,
		Entries: r.Run.EntriesTotal, Resident: r.Run.ResidentTotal, Peak: r.Run.PeakMax,
		Evictions: r.Run.Evictions, Floods: r.Run.Floods, Rediscoveries: r.Run.Rediscoveries,
		Events: r.Run.Events,
	}
}

func churnTraced(cfg runConfig, sz churnSize, o *outcome, tr *tracer) error {
	id := tr.begin("setup")
	start := time.Now()
	experiments.RunTables(experiments.DefaultTablesConfig(cfg.seed, 1))
	o.metrics["topo.build_ms"] = time.Since(start).Seconds() * 1e3
	tr.end(id)

	// Untraced, then the same sweep with taps on every cell's fabric.
	id = tr.begin("timed")
	var untraced, traced []quantum
	mem0 := readMem()
	tr.in("untraced", func() { untraced, _ = sweep(o, cfg.seed, sz.conversations, nil) })
	mem := readMem().since(mem0)
	var taps []*tapCounter
	topo.OnBuilt = func(n *topo.Net) { taps = append(taps, attachTaps(n.Network)) }
	tr.in("traced", func() { traced, _ = sweep(o, cfg.seed, sz.conversations, nil) })
	topo.OnBuilt = nil
	tr.end(id)
	var tapEvents uint64
	for _, tc := range taps {
		tapEvents += tc.fp.Events()
	}

	// The full-size sweep: counts per layer, read as each cell finishes,
	// and the pins against the committed table.
	var bridges bridgeCounts
	var pinned []quantum
	var results []*experiments.TablesResult
	tr.in("pinned", func() {
		pinned, results = sweep(o, cfg.seed, sz.pinnedConversations, func(b *topo.Built) {
			bridges = bridges.add(sumBridges(b.Bridges))
		})
	})
	exactCells(o, results)
	if cfg.seed == 1 {
		var want []tablesRow
		if err := json.Unmarshal(expectedTablesJSON, &want); err != nil {
			return fmt.Errorf("expected_tables.json: %w", err)
		}
		if len(want) != len(results) {
			o.problemf("%d cells, bench/BENCH_tables.json has %d rows", len(results), len(want))
		} else if want[0].Conversations == sz.pinnedConversations {
			for i, r := range results {
				if got := rowOf(r); got != want[i] {
					o.problemf("cell %d = %+v, bench/BENCH_tables.json row = %+v", i, got, want[i])
				}
			}
		}
	}

	var convs, completed, revisitLost, evictions, resident, floods, events int64 // over the pinned sweep
	peak := 0
	for _, r := range results {
		convs += int64(r.Run.Conversations)
		completed += int64(r.Run.Completed)
		revisitLost += int64(r.Run.Completed - r.Run.Revisited)
		evictions += int64(r.Run.Evictions)
		resident += int64(r.Run.ResidentTotal)
		floods += int64(r.Run.Floods)
		events += int64(r.Run.Events)
		peak = max(peak, r.Run.PeakMax)
	}
	m := o.metrics
	m["sim.events"] = float64(events)
	m["sim.events_per_frame"] = float64(events) / float64(convs) // per conversation here
	m["sim.ns_per_event"] = nsPerOp(pinned) * float64(convs) / float64(events)
	m["netsim.tap_events"] = float64(tapEvents)
	m["netsim.live_frames_end"] = float64(netsim.LiveFrames())
	m["trace_overhead_pct"] = overheadPct(nsPerOp(untraced), nsPerOp(traced))
	opTimeMetrics(o, perOpMicros(untraced))
	coreMetrics(m, bridges)
	m["core.revisit_lost"] = float64(revisitLost)
	m["tables.incomplete"] = float64(convs - completed)
	m["tables.evictions"] = float64(evictions)
	m["tables.resident_total"] = float64(resident)
	m["tables.peak_entries_max"] = float64(peak)
	m["tables.flood_amplification"] = float64(floods) / float64(convs)
	mem.metrics(m, int64(len(untraced)*sz.conversations))

	runMicros(tr, m)
	return nil
}
