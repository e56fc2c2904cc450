package fabric

import (
	"fmt"
	"io"
	"time"

	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// simDrive is a simulator workload: it drives the built fabric, between
// the endpoint pair a → b where it needs one.
type simDrive func(r *Runner, built *Built, a, b *host.Host, w WorkloadSpec, out io.Writer, res *Result) error

// sim is the run of a simulator workload (ping, stream, allpairs) on the
// Spec's topology — the arppath-sim harness, spec-rooted.
func sim(drive simDrive) func(*Runner, Spec, io.Writer, *Result) error {
	return func(r *Runner, spec Spec, out io.Writer, res *Result) error {
		opts, err := spec.Options()
		if err != nil {
			return err
		}
		built, err := BuildTopology(opts, spec.Topology)
		if err != nil {
			return err
		}
		first, last, err := pickEndpoints(built, out)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "topology=%s bridges=%d hosts=%d links=%d protocol=%s seed=%d\n\n",
			spec.Topology.Family, len(built.Bridges), len(built.Hosts), len(built.Links),
			spec.Protocol.Name, spec.Seed)
		return drive(r, built, first, last, spec.Workload, out, res)
	}
}

// traceDeliveries is the -trace tap: one tcpdump-style line per frame
// delivery, written as it happens.
func traceDeliveries(w io.Writer) netsim.TapFunc {
	return func(ev netsim.TapEvent) {
		if ev.Kind == netsim.TapDeliver {
			fmt.Fprintf(w, "%12v %-10s %s > %s  %s (%dB)\n",
				ev.At, ev.Kind, ev.From, ev.To, layers.Summarize(ev.Frame), len(ev.Frame))
		}
	}
}

// pickEndpoints returns a deterministic pair of distinct hosts. Every
// family numbers its hosts H1..Hn, so a fabric with two has H1 and H2.
func pickEndpoints(b *Built, out io.Writer) (*host.Host, *host.Host, error) {
	for _, pair := range [][2]string{{"A", "B"}, {"S", "D"}, {"H1", "H2"}} {
		if h1, ok := b.Hosts[pair[0]]; ok {
			if h2, ok := b.Hosts[pair[1]]; ok {
				return h1, h2, nil
			}
		}
	}
	fmt.Fprintln(out, "topology has no usable host pair")
	return nil, nil, ErrIncomplete
}

// numberedHosts names the fabric's H1..Hn hosts, in order.
func numberedHosts(b *Built) []string {
	var names []string
	for i := 1; i <= len(b.Hosts); i++ {
		if name := fmt.Sprintf("H%d", i); b.Hosts[name] != nil {
			names = append(names, name)
		}
	}
	return names
}

func runPing(_ *Runner, built *Built, a, b *host.Host, w WorkloadSpec, out io.Writer, _ *Result) error {
	var rep *app.PingReport
	built.Engine.At(built.Now(), func() {
		app.RunPingSeries(a, b.IP(), w.Pings, w.Interval.D(), func(r *app.PingReport) { rep = r })
	})
	built.RunFor(time.Minute)
	if rep == nil {
		fmt.Fprintln(out, "ping series did not finish")
		return ErrIncomplete
	}
	fmt.Fprintf(out, "%s -> %s: sent=%d lost=%d\n", a.Name(), b.Name(), rep.Sent, rep.Lost)
	fmt.Fprintf(out, "rtt: %s\n\n", rep.RTTs.String())
	fmt.Fprintln(out, rep.Series.ASCII(72, 8))
	return nil
}

func runStream(_ *Runner, built *Built, a, b *host.Host, w WorkloadSpec, out io.Writer, _ *Result) error {
	cfg := app.DefaultStreamConfig()
	cfg.Size = w.StreamSize
	var rep *app.StreamReport
	built.Engine.At(built.Now(), func() {
		app.StartStream(a, b, cfg, func(r *app.StreamReport) { rep = r })
	})
	built.RunFor(5 * time.Minute)
	if rep == nil {
		fmt.Fprintln(out, "stream did not finish inside the budget")
		return ErrIncomplete
	}
	fmt.Fprintf(out, "%s -> %s: %d bytes, complete=%v, stalls=%d, total stall=%v, time=%v\n\n",
		a.Name(), b.Name(), rep.Received, rep.Complete, len(rep.Stalls),
		rep.TotalStall.Round(time.Millisecond),
		(rep.Finished - rep.Connected).Round(time.Millisecond))
	fmt.Fprintln(out, rep.Goodput.ASCII(72, 8))
	return nil
}

func runAllPairs(r *Runner, built *Built, _, _ *host.Host, _ WorkloadSpec, out io.Writer, res *Result) error {
	table := metrics.NewTable("all-pairs steady-state RTT", "pair", "first", "steady", "lost")
	names := numberedHosts(built)
	if len(names) < 2 {
		fmt.Fprintln(out, "allpairs needs H1..Hn hosts (use ring/grid/fattree/random)")
		return ErrIncomplete
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := built.Host(names[i]), built.Host(names[j])
			var results []host.PingResult
			built.Engine.At(built.Now(), func() {
				a.PingSeries(b.IP(), 5, 56, 10*time.Millisecond, 2*time.Second, func(rs []host.PingResult) {
					results = rs
				})
			})
			built.RunFor(10 * time.Second)
			var first, steady time.Duration
			lost := 0
			var d metrics.Distribution
			for k, pr := range results {
				if pr.Err != nil {
					lost++
					continue
				}
				if k == 0 {
					first = pr.RTT
				} else {
					d.Add(pr.RTT)
				}
			}
			steady = d.Mean()
			table.AddRow(names[i]+"-"+names[j], first.Round(time.Microsecond),
				steady.Round(time.Microsecond), lost)
		}
	}
	r.emit(out, res, table)
	return nil
}
