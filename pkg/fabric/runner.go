package fabric

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// ErrIncomplete reports a workload that ran but did not finish inside its
// budget (a stuck stream, an unanswered ping train). The Runner has
// already written the human-readable diagnosis to Out; callers translate
// it into a nonzero exit.
var ErrIncomplete = errors.New("fabric: workload did not complete")

// Runner owns the lifecycle every harness shares: compile the Spec,
// build the fabric(s), run the warm-up, drive the workload, collect the
// outputs (tables, trace fingerprints, bench artifacts). The zero value
// plus a Spec is usable; the exported fields tune presentation only —
// nothing in them may change a simulation result.
type Runner struct {
	Spec Spec

	// Out is the report stream (default os.Stdout): tables, sweep
	// verdicts, fingerprints.
	Out io.Writer
	// CSV renders tables as CSV instead of aligned text.
	CSV bool
	// Graphs renders the per-scenario ASCII latency graphs of the
	// figure2-demo workload.
	Graphs bool
	// TraceTo, when set, streams a tcpdump-style view of every delivery
	// of the topology-driven workloads (arppath-sim -trace).
	TraceTo io.Writer
	// Jobs is the sweep's worker-pool size (default GOMAXPROCS). A
	// sweep's every per-scenario result is identical at any value.
	Jobs int
	// Verbose prints sweep PASS lines, not just failures.
	Verbose bool
	// Profile records pprof artifacts around the workload (arppath-sim
	// -cpuprofile/-memprofile). Observation only: a profiled run's
	// outputs are byte-identical to an unprofiled one.
	Profile ProfileOptions
}

// Result is the machine-readable half of a run.
type Result struct {
	// Spec is the fully defaulted spec that ran.
	Spec Spec
	// Tables are the figures/tables the workload produced, in emission
	// order (they were also rendered to Out).
	Tables []*metrics.Table
	// Failures counts failing scenarios of a sweep.
	Failures int
	// Fingerprint digests the trace of every fabric the run built, in
	// build order, when Spec.Verify.Fingerprint is set. Same Spec ⇒ same
	// fingerprint, at any shard count. Fabrics and TraceEvents report
	// what was folded in.
	Fingerprint uint64
	Fabrics     int
	TraceEvents uint64
	// BenchJSON is the tables workload's row-per-cell JSON artifact
	// (arppath-sim -bench-out).
	BenchJSON []byte
}

// Run executes a Spec with default presentation.
func Run(spec Spec) (*Result, error) {
	r := Runner{Spec: spec}
	return r.Run()
}

// Run compiles the Spec and executes its workload.
//
// Concurrency: one Runner at a time per process. A fingerprinted run
// wires one piece of package-level driver state, the topology OnBuilt
// hook, because the experiment runners build their own fabrics;
// concurrent Runs would race on it. Sweep workloads parallelize
// internally (Jobs) without touching it.
func (r *Runner) Run() (res *Result, err error) {
	spec, err := r.Spec.WithDefaults()
	if err != nil {
		return nil, err
	}
	k, _ := lookupKind(spec.Workload.Kind) // WithDefaults refused an unknown kind
	if k.run == nil {
		return nil, fmt.Errorf("fabric: spec has no workload kind")
	}
	out := r.Out
	if out == nil {
		out = os.Stdout
	}
	res = &Result{Spec: spec}

	// Trace fingerprints: every fabric built anywhere in the run — the
	// topology-driven workloads' own, and the ones the experiment runners
	// build internally — gets a tap the moment it exists (before Start,
	// so warm-up traffic is covered too). The sweep computes per-scenario
	// fingerprints itself; Run folds those instead.
	var fps []*netsim.TapFingerprint
	if spec.Verify.Fingerprint && !k.scenarios {
		prev := topo.OnBuilt
		topo.OnBuilt = func(n *topo.Net) {
			fp := netsim.NewTapFingerprint()
			n.Tap(fp.Observe)
			fps = append(fps, fp)
		}
		defer func() { topo.OnBuilt = prev }()
	}

	if r.Profile.enabled() {
		stop, perr := r.Profile.start()
		if perr != nil {
			return nil, perr
		}
		defer func() {
			if serr := stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	if err = k.run(r, spec, out, res); err != nil {
		return res, err
	}

	for _, fp := range fps {
		res.Fingerprint = foldFingerprint(res.Fingerprint, fp.Sum())
		res.TraceEvents += fp.Events()
	}
	if len(fps) > 0 {
		res.Fabrics = len(fps)
	}
	if spec.Verify.Fingerprint {
		fmt.Fprintf(out, "trace fingerprint: %#016x (fabrics=%d events=%d)\n",
			res.Fingerprint, res.Fabrics, res.TraceEvents)
	}
	return res, nil
}

// foldFingerprint mixes per-fabric digests order-sensitively (FNV-style),
// so "same fabrics in the same order" is what the combined value pins.
func foldFingerprint(acc, fp uint64) uint64 {
	acc ^= fp
	acc *= 1099511628211
	return acc
}

// emit renders a table to Out the way every harness always has.
func (r *Runner) emit(out io.Writer, res *Result, t *metrics.Table) {
	res.Tables = append(res.Tables, t)
	if r.CSV {
		fmt.Fprint(out, t.CSV())
	} else {
		fmt.Fprintln(out, t)
	}
}
