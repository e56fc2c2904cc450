package fabric

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/flowpath"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// sweepDefaults fills the sweep's scenario: every family for an absent or
// ["all"] list, and 16 seeds.
func sweepDefaults(s *Spec) {
	sc := *cmp.Or(s.Scenario, &ScenarioSpec{})
	sc.Topologies = allFamilies(sc.Topologies, topo.Families(true))
	sc.Faults = allFamilies(sc.Faults, scenario.FaultFamilies())
	sc.Seeds = cmp.Or(sc.Seeds, 16)
	s.Scenario = &sc
}

// allFamilies expands an absent or ["all"] family list to every known family.
func allFamilies[F ~string](names []string, known []F) []string {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = nil
		for _, f := range known {
			names = append(names, string(f))
		}
	}
	return names
}

// knownFamilies refuses a family name the list does not know.
func knownFamilies[F ~string](kind string, names []string, known []F) error {
	for _, n := range names {
		if !slices.Contains(known, F(n)) {
			return fmt.Errorf("spec: unknown %s family %q (known: %s)", kind, n, strings.Join(allFamilies(nil, known), ", "))
		}
	}
	return nil
}

// sweepCheck refuses a sweep over unknown families, or over a protocol or
// protocol config the sweep cannot run (ScenarioSpec): a config other than
// the registered defaults, proxy excepted, is refused, not dropped.
func sweepCheck(s Spec) error {
	if err := cmp.Or(knownFamilies("topology", s.Scenario.Topologies, topo.Families(true)),
		knownFamilies("fault", s.Scenario.Faults, scenario.FaultFamilies())); err != nil {
		return err
	}
	proto := topo.Protocol(s.Protocol.Name)
	if !slices.Contains([]topo.Protocol{topo.ARPPath, flowpath.ProtoFlowPath, flowpath.ProtoTCPPath}, proto) {
		return fmt.Errorf("spec: protocol: the sweep verifies All-Path invariants; protocol %q is not sweepable", s.Protocol.Name)
	}
	var ref []byte
	if sweepProxy(s) {
		ref = []byte(`{"proxy":true}`)
	}
	def, cfg, err := topo.DecodeProtocol(proto, ref)
	if err == nil {
		ref, err = def.Encode(cfg)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(ref, s.Protocol.Config) {
		return fmt.Errorf("spec: protocol.config: the sweep builds its fabrics with the default %s config; only the proxy knob is honoured (got %s)",
			s.Protocol.Name, s.Protocol.Config)
	}
	return nil
}

// sweepProxy reads the proxy knob of a defaulted sweep Spec's protocol.
func sweepProxy(s Spec) bool {
	var knobs struct {
		Proxy bool `json:"proxy"`
	}
	_ = json.Unmarshal(s.Protocol.Config, &knobs) // cannot fail: WithDefaults encoded the config canonically
	return knobs.Proxy
}

// runSweep is the scenario harness: seeded random topologies × seeded
// fault schedules × protocol invariant checks; a failing scenario's
// fault schedule is always shrunk.
// Independent scenarios run concurrently on Jobs workers; each scenario's
// seed, trace and fingerprint are identical at any Jobs value.
func (r *Runner) runSweep(spec Spec, out io.Writer, res *Result) error {
	jobs := r.Jobs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	cfgs := sweepConfigs(spec)

	// Worker pool: scenarios are independent simulations, so the sweep
	// parallelizes trivially; results are reported in sweep order.
	results := make([]*scenario.Result, len(cfgs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		//fabriclint:nondeterministic each scenario is its own simulation on one worker; results are reported in sweep order
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = scenario.Run(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		work <- i
	}
	close(work)
	wg.Wait()

	failed := 0
	for i, sr := range results {
		if !sr.Failed() {
			if r.Verbose {
				fmt.Fprintf(out, "PASS %-40s bridges=%d links=%d events=%d probes=%d/%d warm=%d/%d bg=%d/%d fp=%#x\n",
					cfgs[i].Name(), sr.Bridges, sr.Links, sr.Events,
					sr.ProbesAnswered, sr.ProbesSent,
					sr.WarmProbesAnswered, sr.WarmProbesSent,
					sr.BackgroundDelivered, sr.BackgroundOffered, sr.Fingerprint)
			}
			continue
		}
		failed++
		reportFailure(out, sr)
		if err := doShrink(out, cfgs[i], sr); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\n%d scenarios, %d failed (j=%d, big=%v, shards=%d)\n", len(cfgs), failed, jobs, spec.Scenario.Big, spec.Shards)
	res.Failures = failed

	if spec.Verify.Fingerprint {
		for _, sr := range results {
			res.Fingerprint = foldFingerprint(res.Fingerprint, sr.Fingerprint)
			res.TraceEvents += sr.Events
		}
		res.Fabrics = len(results)
	}
	return nil
}

// sweepConfigs expands a defaulted sweep Spec into its scenarios, in
// sweep order: every (topology, faults) pairing at each seed.
func sweepConfigs(spec Spec) []scenario.Config {
	sc, proxy := spec.Scenario, sweepProxy(spec)
	var cfgs []scenario.Config
	for _, tf := range sc.Topologies {
		for _, ff := range sc.Faults {
			for s := 0; s < sc.Seeds; s++ {
				cfgs = append(cfgs, scenario.Config{
					Seed:     spec.Seed + int64(s),
					Topology: tf,
					Faults:   scenario.FaultFamily(ff),
					Protocol: topo.Protocol(spec.Protocol.Name),
					Big:      sc.Big,
					Proxy:    proxy,
					Shards:   spec.Shards,
				})
			}
		}
	}
	return cfgs
}

func reportFailure(out io.Writer, r *scenario.Result) {
	fmt.Fprintf(out, "FAIL %s (bridges=%d links=%d events=%d)\n", r.Config.Name(), r.Bridges, r.Links, r.Events)
	for _, v := range r.Violations {
		fmt.Fprintf(out, "  violation: %v\n", v)
	}
	if r.ViolationsDropped > 0 {
		fmt.Fprintf(out, "  ... and %d further violations\n", r.ViolationsDropped)
	}
	for _, op := range r.OpsApplied {
		fmt.Fprintf(out, "  schedule: %s\n", op)
	}
}

func doShrink(out io.Writer, cfg scenario.Config, r *scenario.Result) error {
	min, res, ok := scenario.Shrink(cfg, r.Ops)
	if !ok {
		fmt.Fprintf(out, "  shrink: failure does not reproduce from the fault schedule alone\n")
		return nil
	}
	fmt.Fprintf(out, "  shrink: %d of %d ops suffice:\n", len(min), len(r.Ops))
	for _, op := range res.OpsApplied {
		fmt.Fprintf(out, "    %s\n", op)
	}
	// The reproduce line is the one-scenario Spec itself: the protocol,
	// proxy, tier and shard count all make a scenario, and a Spec carries
	// every one of them.
	line, err := reproduceSpec(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  reproduce: arppath-sim -spec <(echo '%s')\n", line)
	return nil
}

// reproduceSpec encodes, as one line of JSON, the sweep Spec whose one
// scenario is cfg: runSweep expands it to exactly cfg.
func reproduceSpec(cfg scenario.Config) ([]byte, error) {
	s := Spec{
		Seed:     cfg.Seed,
		Shards:   cfg.Shards,
		Protocol: ProtocolSpec{Name: string(cfg.Protocol)},
		Workload: WorkloadSpec{Kind: "sweep"},
		Scenario: &ScenarioSpec{
			Topologies: []string{cfg.Topology},
			Faults:     []string{string(cfg.Faults)},
			Seeds:      1,
			Big:        cfg.Big,
		},
	}
	if cfg.Proxy {
		s.Protocol.Config = json.RawMessage(`{"proxy":true}`)
	}
	return json.Marshal(s)
}
