package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/flowpath"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// sweepProtocols are the protocols whose invariants the scenario engine
// can verify: ARP-Path and the All-Path variants.
var sweepProtocols = map[topo.Protocol]bool{
	topo.ARPPath:           true,
	flowpath.ProtoFlowPath: true,
	flowpath.ProtoTCPPath:  true,
}

// runSweep is the scenario harness: seeded random topologies × seeded
// fault schedules × protocol invariant checks, with shrink-on-failure.
// Independent scenarios run concurrently on Jobs workers; each scenario's
// seed, trace and fingerprint are identical at any Jobs value.
func (r *Runner) runSweep(spec Spec, out io.Writer, jobs int, res *Result) error {
	cfgs, err := sweepConfigs(spec)
	if err != nil {
		return err
	}

	// Worker pool: scenarios are independent simulations, so the sweep
	// parallelizes trivially; results are reported in sweep order.
	results := make([]*scenario.Result, len(cfgs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
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
		if *spec.Scenario.Shrink {
			if err := doShrink(out, cfgs[i], sr); err != nil {
				return err
			}
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
func sweepConfigs(spec Spec) ([]scenario.Config, error) {
	proto := topo.Protocol(spec.Protocol.Name)
	if !sweepProtocols[proto] {
		return nil, fmt.Errorf("fabric: the sweep verifies All-Path invariants; protocol %q is not sweepable", spec.Protocol.Name)
	}
	// The one protocol knob the sweep honours is the proxy: a proxy-enabled
	// Spec arms proxy mode (and the proxy-consistency invariant)
	// fleet-wide. Any other tuning in the extension is rejected rather
	// than silently dropped — each scenario builds its fabric with the
	// defaults — so the (already canonical) extension must equal the
	// canonical encoding of the registered defaults, proxy excepted.
	var knobs struct {
		Proxy bool `json:"proxy"`
	}
	if err := json.Unmarshal(spec.Protocol.Config, &knobs); err != nil {
		return nil, err
	}
	var ref []byte
	if knobs.Proxy {
		ref = []byte(`{"proxy":true}`)
	}
	def, cfg, err := topo.DecodeProtocol(proto, ref)
	if err != nil {
		return nil, err
	}
	if ref, err = def.Encode(cfg); err != nil {
		return nil, err
	}
	if !bytes.Equal(ref, spec.Protocol.Config) {
		return nil, fmt.Errorf("fabric: the sweep builds its fabrics with the default %s config; only the proxy knob is honoured (got %s)",
			spec.Protocol.Name, spec.Protocol.Config)
	}

	sc := spec.Scenario
	var cfgs []scenario.Config
	for _, tf := range sc.Topologies {
		for _, ff := range sc.Faults {
			for s := 0; s < sc.Seeds; s++ {
				cfgs = append(cfgs, scenario.Config{
					Seed:        spec.Seed + int64(s),
					Topology:    tf,
					Faults:      scenario.FaultFamily(ff),
					Protocol:    proto,
					Big:         sc.Big,
					Proxy:       knobs.Proxy,
					Shards:      spec.Shards,
					FaultPhase:  sc.FaultPhase.D(),
					Quiesce:     sc.Quiesce.D(),
					VerifyPairs: spec.Verify.Pairs,
					VerifyPings: spec.Verify.Pings,
				})
			}
		}
	}

	return cfgs, nil
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
	// proxy, tier, phase timing, probe counts and shard count all make a
	// scenario, and a Spec carries every one of them.
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
			FaultPhase: Duration(cfg.FaultPhase),
			Quiesce:    Duration(cfg.Quiesce),
		},
		Verify: VerifySpec{Pairs: cfg.VerifyPairs, Pings: cfg.VerifyPings},
	}
	if cfg.Proxy {
		s.Protocol.Config = json.RawMessage(`{"proxy":true}`)
	}
	return json.Marshal(s)
}
