// Command fabricserve keeps a fabric resident and serves streamed ops
// against it (DESIGN.md §13). Three modes:
//
//	fabricserve -spec FILE [-shards K] [-listen unix:PATH|tcp:ADDR]
//	            [-oplog FILE] [-metrics ADDR]
//
// boots the daemon: clients connect to -listen and drive workload and
// fault ops as newline-delimited JSON; every accepted op lands on a
// boundary of the 10 ms virtual-time grid and appends to -oplog. Virtual
// time runs flat out. -metrics serves the live text exposition over HTTP.
//
//	fabricserve -replay FILE [-shards K]
//
// re-executes a session op-log and prints the session report; its trace
// fingerprint is byte-identical to the live run's, at any -shards.
//
//	fabricserve -soak -connect unix:PATH|tcp:ADDR [-seed N]
//	            [-duration D] [-slo D]
//
// drives seeded churn (priority pings under background load and a fault
// storm) against a live daemon, then drains it and asserts the
// priority-class p99 SLO; the exit status is the verdict.
//
// Exit status: 2 on a usage error or a spec the daemon refuses
// (serve.CheckSpec); 1 on any other error or a failed soak; 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"net/http"

	"repro/pkg/fabric"
	"repro/pkg/fabric/serve"
)

// splitAddr parses "unix:PATH" or "tcp:HOST:PORT" into a (network,
// address) pair for net.Listen / net.Dial.
func splitAddr(s string) (network, addr string, err error) {
	network, addr, ok := strings.Cut(s, ":")
	if !ok || (network != "unix" && network != "tcp") {
		return "", "", fmt.Errorf("address %q must be unix:PATH or tcp:HOST:PORT", s)
	}
	return network, addr, nil
}

func main() {
	specPath := flag.String("spec", "", "serve the fabric this spec file describes (default: the figure 2 fabric)")
	shards := flag.Int("shards", 0, "override the spec's (or the op-log header's) shard count")
	listen := flag.String("listen", "unix:fabricserve.sock", "op endpoint: unix:PATH or tcp:HOST:PORT")
	opLog := flag.String("oplog", "", "append the session op-log to this file")
	metricsAddr := flag.String("metrics", "", "serve /metrics over HTTP on this address")
	replay := flag.String("replay", "", "replay this session op-log instead of serving")
	soak := flag.Bool("soak", false, "run the soak client instead of serving")
	connect := flag.String("connect", "", "soak: daemon endpoint, unix:PATH or tcp:HOST:PORT")
	seed := flag.Int64("seed", 1, "soak: churn seed")
	duration := flag.Duration("duration", time.Second, "soak: virtual time to drive")
	slo := flag.Duration("slo", 20*time.Millisecond, "soak: priority-class p99 ceiling")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "soak: how long to retry the initial connect")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "fabricserve: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	exit := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "fabricserve: %v\n", err)
		os.Exit(code)
	}

	switch {
	case *soak:
		network, addr, err := splitAddr(*connect)
		if err != nil {
			exit(2, fmt.Errorf("-connect: %w", err))
		}
		if _, err := serve.Soak(serve.SoakConfig{
			Network: network, Addr: addr,
			Seed: *seed, Duration: *duration, SLO: *slo,
			DialTimeout: *dialTimeout, Out: os.Stdout,
		}); err != nil {
			exit(1, err)
		}

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			exit(1, err)
		}
		defer f.Close()
		if _, err := serve.Replay(f, *shards, os.Stdout); err != nil {
			exit(1, err)
		}

	default:
		spec := fabric.Spec{}
		if *specPath != "" {
			var err error
			spec, err = fabric.LoadSpec(*specPath)
			if err != nil {
				exit(2, err)
			}
		}
		if *shards > 0 {
			spec.Shards = *shards
		}
		// A spec the daemon refuses is a usage error, not a failed run.
		if _, err := serve.CheckSpec(spec); err != nil {
			exit(2, err)
		}
		opts := serve.Options{Spec: spec, Out: os.Stdout}
		if *opLog != "" {
			f, err := os.Create(*opLog)
			if err != nil {
				exit(1, err)
			}
			defer f.Close()
			opts.OpLog = f
		}
		network, addr, err := splitAddr(*listen)
		if err != nil {
			exit(2, fmt.Errorf("-listen: %w", err))
		}
		if network == "unix" {
			os.Remove(addr)
		}
		srv, err := serve.New(opts)
		if err != nil {
			exit(1, err)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			exit(1, err)
		}
		if network == "unix" {
			defer os.Remove(addr)
		}
		if *metricsAddr != "" {
			go func() {
				mux := http.NewServeMux()
				mux.Handle("/metrics", srv.MetricsHandler())
				if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
					fmt.Fprintf(os.Stderr, "fabricserve: metrics endpoint: %v\n", err)
				}
			}()
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			srv.Shutdown()
		}()
		fmt.Fprintf(os.Stderr, "fabricserve: serving on %s:%s\n", network, addr)
		if err := srv.Serve(ln); err != nil {
			exit(1, err)
		}
		srv.Wait()
	}
}
