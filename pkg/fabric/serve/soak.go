package serve

// The soak client: seeded churn against a live daemon, with a hard
// latency assertion at the end. It drives priority ping trains through a
// storm of background bursts, streams and self-healing faults, then
// drains the fabric and asserts the priority class's p99 against its SLO.
// Every op self-heals (flaps, loss windows, partitions and host moves all
// carry a horizon), so the storm never leaves the fabric degenerate; a
// final heal covers whatever a shrunk run would have left dangling.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/pkg/fabric"
)

// soakMinRounds floors the churn: an unpaced daemon free-runs virtual
// time between ops, so the duration alone could be met in a handful of
// rounds.
const soakMinRounds = 12

// SoakConfig drives Soak.
type SoakConfig struct {
	// Network and Addr name the daemon endpoint ("unix", "/path") or
	// ("tcp", "host:port").
	Network string
	Addr    string
	// Seed makes the churn reproducible client-side.
	Seed int64
	// Duration is how much virtual time the soak spans.
	Duration time.Duration
	// SLO is the priority-class p99 ceiling asserted at the end.
	SLO time.Duration
	// DialTimeout bounds the initial connect retry loop.
	DialTimeout time.Duration
	// Out receives the soak summary.
	Out io.Writer
}

// ErrSLOViolated is the soak verdict "the session was sound, the
// priority-class p99 was over its ceiling". Soak wraps it only after every
// other check passed and the daemon shut down cleanly, so a caller whose
// subject is the session itself (live-vs-replay equality under wall-clock
// op arrival, where one probe issued inside a fault window rides the
// host's 1 s ARP retry) can tell it from a broken session with errors.Is.
var ErrSLOViolated = errors.New("serve: priority SLO violated")

// SoakResult is the outcome of a soak run.
type SoakResult struct {
	Rounds   int
	Ops      uint64
	Virtual  time.Duration
	Priority ClassStats
	Stats    *Stats
}

type client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
}

func dialRetry(network, addr string, timeout time.Duration) (*client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout) // dial-retry budget for reaching a live daemon; not simulation time
	var lastErr error
	for {
		conn, err := net.DialTimeout(network, addr, time.Second)
		if err == nil {
			c := &client{conn: conn, sc: bufio.NewScanner(conn), enc: json.NewEncoder(conn)}
			c.sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
			return c, nil
		}
		lastErr = err
		if time.Now().After(deadline) { // dial-retry budget check; not simulation time
			return nil, fmt.Errorf("serve: dial %s %s: %w", network, addr, lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (c *client) close() { c.conn.Close() }

// call sends one request and reads its response; a transport failure or
// an error response both fail the call.
func (c *client) call(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("serve: send %s: %w", req.Op, err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, fmt.Errorf("serve: read %s reply: %w", req.Op, err)
		}
		return Response{}, fmt.Errorf("serve: connection closed awaiting %s reply", req.Op)
	}
	var resp Response
	dec := json.NewDecoder(bytes.NewReader(c.sc.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("serve: decode %s reply: %w", req.Op, err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("serve: %s rejected: %s", req.Op, resp.Error)
	}
	return resp, nil
}

// Soak connects to a live daemon, drives seeded churn for cfg.Duration of
// virtual time, then drains the fabric, asserts the priority-class p99
// SLO and shuts the daemon down. The returned error is non-nil on any
// rejected op, a priority class with no samples, leaked frames, or — last,
// wrapping ErrSLOViolated, with the result still complete — a violated SLO.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 20 * time.Millisecond
	}
	c, err := dialRetry(cfg.Network, cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	defer c.close()

	infoResp, err := c.call(Request{Op: "info"})
	if err != nil {
		return nil, err
	}
	info := infoResp.Info
	if info == nil || len(info.Hosts) < 2 {
		return nil, fmt.Errorf("serve: soak needs at least two hosts, daemon reports %v", info)
	}
	start := infoResp.At.D()
	end := start + cfg.Duration

	rng := newSeededRand(cfg.Seed)
	pick2 := func() (string, string) {
		i := rng.Intn(len(info.Hosts))
		j := rng.Intn(len(info.Hosts) - 1)
		if j >= i {
			j++
		}
		return info.Hosts[i], info.Hosts[j]
	}
	dur := func(d time.Duration) fabric.Duration { return fabric.Duration(d) }

	res := &SoakResult{}
	var at time.Duration
	send := func(req Request) error {
		resp, err := c.call(req)
		if err != nil {
			return err
		}
		if resp.At.D() > at {
			at = resp.At.D()
		}
		res.Ops++
		return nil
	}

	for at < end || res.Rounds < soakMinRounds {
		res.Rounds++
		// The SLO subject: a short priority train between a random pair.
		src, dst := pick2()
		if err := send(Request{Op: "ping", Src: src, Dst: dst, Class: ClassPriority,
			Count: 3, Interval: dur(5 * time.Millisecond)}); err != nil {
			return res, err
		}
		// Background load: bursts every round, heavier shapes periodically.
		bsrc, bdst := pick2()
		if err := send(Request{Op: "burst", Src: bsrc, Dst: bdst, Count: 100}); err != nil {
			return res, err
		}
		switch res.Rounds % 4 {
		case 1:
			if err := send(Request{Op: "matrix", Seed: rng.Int63(), Flows: 3, Count: 50}); err != nil {
				return res, err
			}
		case 3:
			ssrc, sdst := pick2()
			if err := send(Request{Op: "stream", Src: ssrc, Dst: sdst, Bytes: 32 << 10}); err != nil {
				return res, err
			}
		}
		// Background pings keep both classes populated.
		gsrc, gdst := pick2()
		if err := send(Request{Op: "ping", Src: gsrc, Dst: gdst, Class: ClassBackground,
			Count: 2, Interval: dur(7 * time.Millisecond)}); err != nil {
			return res, err
		}
		// The fault storm: one self-healing fault per round.
		var fault Request
		switch rng.Intn(5) {
		case 0:
			fault = Request{Op: "flap", Link: info.Links[rng.Intn(len(info.Links))],
				For: dur(30 * time.Millisecond)}
		case 1:
			fault = Request{Op: "set-loss", Link: info.Links[rng.Intn(len(info.Links))],
				Side: rng.Intn(2), Rate: 0.2, For: dur(40 * time.Millisecond)}
		case 2:
			fault = Request{Op: "bridge-restart", Bridge: info.Bridges[rng.Intn(len(info.Bridges))]}
		case 3:
			fault = Request{Op: "partition", Seed: rng.Int63(), For: dur(50 * time.Millisecond)}
		case 4:
			if len(info.Mobile) > 0 {
				fault = Request{Op: "host-move", Host: info.Mobile[rng.Intn(len(info.Mobile))],
					For: dur(60 * time.Millisecond)}
			} else {
				fault = Request{Op: "flap", Link: info.Links[rng.Intn(len(info.Links))],
					For: dur(30 * time.Millisecond)}
			}
		}
		if err := send(fault); err != nil {
			return res, err
		}
	}

	// Settle: return every fault to service, drain in-flight traffic.
	if err := send(Request{Op: "heal"}); err != nil {
		return res, err
	}
	if err := send(Request{Op: "drain"}); err != nil {
		return res, err
	}
	statsResp, err := c.call(Request{Op: "stats"})
	if err != nil {
		return res, err
	}
	res.Stats = statsResp.Stats
	res.Virtual = statsResp.At.D() - start
	if _, err := c.call(Request{Op: "shutdown"}); err != nil {
		return res, err
	}

	pri, ok := res.Stats.Classes[ClassPriority]
	res.Priority = pri
	fmt.Fprintf(out, "soak: rounds=%d ops=%d virtual=%v live_frames=%d\n",
		res.Rounds, res.Ops, res.Virtual, res.Stats.LiveFrames)
	fmt.Fprintf(out, "soak: priority n=%d lost=%d p50=%v p99=%v max=%v (slo p99<=%v)\n",
		pri.Count, pri.Lost, pri.P50.D(), pri.P99.D(), pri.Max.D(), cfg.SLO)
	if !ok || pri.Count == 0 {
		return res, fmt.Errorf("serve: soak recorded no priority samples")
	}
	if res.Stats.LiveFrames != 0 {
		return res, fmt.Errorf("serve: %d frames still live after drain", res.Stats.LiveFrames)
	}
	if pri.P99.D() > cfg.SLO {
		return res, fmt.Errorf("%w: p99 %v over %v", ErrSLOViolated, pri.P99.D(), cfg.SLO)
	}
	fmt.Fprintf(out, "soak: SLO met\n")
	return res, nil
}
