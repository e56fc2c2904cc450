package main

import (
	"strings"
	"time"
)

// workload is one named set of inputs. Either run executes it once and
// checks its outputs.
type workload struct {
	name string
	// timed is the untraced run: it measures for cfg.seconds and fills in
	// the end-to-end metrics.
	timed func(cfg runConfig) (*outcome, error)
	// traced is the traced run: fixed work, spans into tr, per-layer
	// metrics and exact counts into o.
	traced func(cfg runConfig, o *outcome, tr *tracer) error
}

func (w workload) run(cfg runConfig) (*outcome, error) {
	if !cfg.trace {
		return w.timed(cfg)
	}
	o, tr := newOutcome(), newTracer()
	root := tr.begin("run")
	if err := w.traced(cfg, o, tr); err != nil {
		return nil, err
	}
	tr.end(root)
	return o, tr.write(cfg.traceFile, w.name, cfg.seed, o)
}

// workloads is the benchmark. BENCHMARK.json carries each one's rationale;
// the files named after the kinds carry the detail.
var workloads = []workload{
	// The ROADMAP headline configuration: cache-resident, no floods, no
	// table writes, no coordinator. Heap pop/push, the bridge hit path and
	// the host's UDP send do the work.
	unicast("steady_unicast", unicastSize{
		bridges: 256, degree: 3, flows: 64, hops: 8, shards: 1,
		quantum: time.Millisecond, roundQuanta: 100, pinRounds: 3, setupReps: 5, tracedRounds: 8,
	}),
	// The same shape past the CPU caches: four times the bridges and
	// flows. Locality and queue-structure changes show here and not above.
	unicast("wide_unicast", unicastSize{
		bridges: 1024, degree: 3, flows: 256, hops: 10, shards: 1,
		quantum: 100 * time.Microsecond, roundQuanta: 200, pinRounds: 3, setupReps: 5, tracedRounds: 3,
	}),
	// steady_unicast's fabric and traffic on two shards sharing one OS
	// thread: the netsim coordinator (window barrier, outbox exchange,
	// worker hand-off) is paid here and not above, so the ratio of the two
	// is what sharding costs before any parallel gain.
	unicast("sharded_unicast", unicastSize{
		bridges: 256, degree: 3, flows: 64, hops: 8, shards: 2,
		quantum: time.Millisecond, roundQuanta: 100, pinRounds: 3, setupReps: 5, tracedRounds: 3,
	}),
	pump("pump_forward", pumpSize{k: 4, pairs: 8, train: 2048, setupReps: 5, tracedTrains: 800}),
	churn("discovery_churn", churnSize{conversations: 2500, setupReps: 5, pinnedConversations: 20000}),
	daemon("serve_mixed", serveSize{
		bridges: 256, degree: 3, conns: 2, quantum: 10 * time.Millisecond, setupReps: 5, floorOps: 1000,
	}),
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
