package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/pkg/fabric"
	"repro/pkg/fabric/serve"
)

// serve_mixed: the fabricserve daemon in-process on a unix socket,
// unpaced, driven closed-loop by a fixed number of connections — each
// sends its next op only when the last was answered, so a slower daemon
// is offered less. The op is one acknowledged request; its time is the
// client-side send→reply wall time: the wait for the serving loop's
// current RunFor slice, plus codec, queue and reply. It moves with both
// fabric speed and daemon overhead.

type serveSize struct {
	bridges, degree int
	conns           int // closed-loop client connections
	quantum         time.Duration
	setupReps       int
	floorOps        int // traced run: stats ops timed on the quiescent daemon
}

func daemon(name string, sz serveSize) workload {
	return workload{
		name:   name,
		timed:  func(cfg runConfig) (*outcome, error) { return daemonTimed(cfg, sz) },
		traced: func(cfg runConfig, o *outcome, tr *tracer) error { return daemonTraced(cfg, sz, o, tr) },
	}
}

// opKinds is the traffic mix, in percent. Flaps self-heal; every other
// fault family is left to the soak client (cmd/fabricserve -soak).
var opKinds = []struct {
	kind   string
	weight int
}{
	{"ping", 40}, {"burst", 40}, {"stream", 8}, {"matrix", 5}, {"flap", 4}, {"stats", 3},
}

func newServer(sz serveSize, oplog io.Writer) (*serve.Server, error) {
	return serve.New(serve.Options{
		Spec: fabric.Spec{
			Seed:     fabricSeed,
			Topology: fabric.TopologySpec{Family: "random-regular", N: sz.bridges, Degree: sz.degree},
			Shards:   1,
		},
		Quantum: sz.quantum,
		OpLog:   oplog,
	})
}

func stopServer(s *serve.Server) *serve.Report {
	s.Shutdown()
	return s.Wait()
}

// client is one NDJSON connection to the daemon.
type client struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
}

func dial(path string) (*client, error) {
	conn, err := net.Dial("unix", path)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, enc: json.NewEncoder(conn), sc: bufio.NewScanner(conn)}
	c.sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return c, nil
}

// call sends one request and waits for its reply; a transport failure and
// a rejection both fail the op.
func (c *client) call(req serve.Request) (serve.Response, error) {
	var resp serve.Response
	if err := c.enc.Encode(req); err != nil {
		return resp, fmt.Errorf("send %s: %w", req.Op, err)
	}
	if !c.sc.Scan() {
		return resp, fmt.Errorf("connection closed awaiting %s reply: %v", req.Op, c.sc.Err())
	}
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return resp, fmt.Errorf("decode %s reply: %w", req.Op, err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("%s rejected: %s", req.Op, resp.Error)
	}
	return resp, nil
}

// opSample is one op as its client saw it.
type opSample struct {
	kind       string
	start, end time.Time
	err        error
}

// session is one live daemon with its listener.
type session struct {
	srv    *serve.Server
	dir    string
	sock   string
	served chan error
	info   *serve.Info
	ctl    *client
}

func openSession(srv *serve.Server) (*session, error) {
	// A short relative path: unix socket names are limited to ~100 bytes,
	// and the benchmark writes nowhere but under its working directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "sock")
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, dir: dir, sock: filepath.Join(dir, "s"), served: make(chan error, 1)}
	ln, err := net.Listen("unix", s.sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { s.served <- srv.Serve(ln) }()
	if s.ctl, err = dial(s.sock); err == nil {
		var resp serve.Response
		if resp, err = s.ctl.call(serve.Request{Op: "info"}); err == nil {
			s.info = resp.Info
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close shuts the daemon down and waits for Serve and its connection
// handlers to end.
func (s *session) close() *serve.Report {
	if s.ctl != nil {
		s.ctl.conn.Close()
	}
	rep := stopServer(s.srv)
	<-s.served
	os.RemoveAll(s.dir)
	return rep
}

// nextOp draws one request of the mix.
func nextOp(rng *rand.Rand, info *serve.Info) serve.Request {
	pick2 := func() (string, string) {
		i := rng.Intn(len(info.Hosts))
		j := rng.Intn(len(info.Hosts) - 1)
		if j >= i {
			j++
		}
		return info.Hosts[i], info.Hosts[j]
	}
	n := rng.Intn(100)
	kind := ""
	for _, k := range opKinds {
		if n < k.weight {
			kind = k.kind
			break
		}
		n -= k.weight
	}
	switch kind {
	case "ping":
		src, dst := pick2()
		return serve.Request{Op: "ping", Src: src, Dst: dst, Class: serve.ClassPriority,
			Count: 3, Interval: fabric.Duration(5 * time.Millisecond)}
	case "burst":
		src, dst := pick2()
		return serve.Request{Op: "burst", Src: src, Dst: dst, Count: 200}
	case "stream":
		src, dst := pick2()
		return serve.Request{Op: "stream", Src: src, Dst: dst, Bytes: 32 << 10}
	case "matrix":
		return serve.Request{Op: "matrix", Seed: rng.Int63(), Flows: 3, Count: 50}
	case "flap":
		return serve.Request{Op: "flap", Link: info.Links[rng.Intn(len(info.Links))],
			For: fabric.Duration(30 * time.Millisecond)}
	default:
		return serve.Request{Op: "stats"}
	}
}

// load drives the closed loop for the given wall time and returns every
// op, ordered by completion. tr, when set, records one span per op.
func (s *session) load(seed int64, conns int, d time.Duration, tr *tracer, parent int) ([]opSample, error) {
	clients := make([]*client, conns)
	for i := range clients {
		c, err := dial(s.sock)
		if err != nil {
			return nil, err
		}
		defer c.conn.Close()
		clients[i] = c
	}
	perConn := make([][]opSample, conns)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
			for seq := 0; time.Now().Before(deadline); seq++ {
				req := nextOp(rng, s.info)
				op := opSample{kind: req.Op, start: time.Now()}
				_, op.err = c.call(req)
				op.end = time.Now()
				perConn[i] = append(perConn[i], op)
				tr.add(parent, "op."+req.Op, op.start, op.end, map[string]any{"conn": i, "seq": seq})
				if op.err != nil {
					return // the connection's reply stream is no longer in step
				}
			}
		}()
	}
	wg.Wait()
	var ops []opSample
	for _, p := range perConn {
		ops = append(ops, p...)
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].end.Before(ops[b].end) })
	return ops, nil
}

// settle returns the fabric to service, drains it and checks it ends
// clean. It returns how long heal+drain took.
func (s *session) settle(o *outcome) time.Duration {
	start := time.Now()
	for _, op := range []string{"heal", "drain"} {
		if _, err := s.ctl.call(serve.Request{Op: op}); err != nil {
			o.problemf("%v", err)
		}
	}
	took := time.Since(start)
	if resp, err := s.ctl.call(serve.Request{Op: "stats"}); err != nil {
		o.problemf("%v", err)
	} else if resp.Stats.LiveFrames != 0 {
		o.problemf("%d frames still live after drain", resp.Stats.LiveFrames)
	}
	return took
}

// countOps folds a load phase into attempted/failed.
func countOps(o *outcome, ops []opSample) {
	o.attempted += int64(len(ops))
	for _, op := range ops {
		if op.err != nil {
			o.failed++
			o.problemf("op failed: %v", op.err)
		}
	}
}

// rateGroup and fastGroups define the daemon's ops_per_sec. Ops differ,
// so there is no per-quantum time to take a quantile of; the acknowledged
// ops are cut into groups of rateGroup consecutive replies instead (a
// quarter of a second at 600 ops/s), and the rate is read where a tenth of
// the groups are quicker — 65 groups in an 18 s run, 6 beyond it.
const (
	rateGroup  = 150
	fastGroups = 0.9
)

// opRate is the daemon's ops_per_sec. ops are in order of completion. The
// first eleventh is dropped as warm, the rest is cut into groups of
// rateGroup, each timed from the reply before it to its last reply, and
// the metric is the fastGroups quantile of the groups' rates. A phase
// shorter than one group reports its plain rate.
func opRate(ops []opSample) float64 {
	warm := len(ops)/warmShare + 1
	var rates []float64
	for i := warm; i+rateGroup <= len(ops); i += rateGroup {
		rates = append(rates, rateGroup/ops[i+rateGroup-1].end.Sub(ops[i-1].end).Seconds())
	}
	if len(rates) == 0 {
		if len(ops) < 2 {
			return 0
		}
		return float64(len(ops)-1) / ops[len(ops)-1].end.Sub(ops[0].end).Seconds()
	}
	sort.Float64s(rates)
	return rates[int(fastGroups*float64(len(rates)))]
}

// latenciesMicros is each op's client-side send→reply wall time, in µs.
func latenciesMicros(ops []opSample) []float64 {
	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = float64(op.end.Sub(op.start).Nanoseconds()) / 1e3
	}
	return lat
}

// withSession serves srv on a socket, runs fn against it, then shuts the
// daemon down and checks that it ended with no frame leaked.
func withSession(srv *serve.Server, o *outcome, tr *tracer, fn func(*session) error) (*serve.Report, error) {
	s, err := openSession(srv)
	if err != nil {
		stopServer(srv)
		return nil, err
	}
	err = fn(s)
	var rep *serve.Report
	tr.in("teardown", func() { rep = s.close() })
	if rep.LeakedFrames != 0 {
		o.problemf("%d frames leaked at shutdown", rep.LeakedFrames)
	}
	return rep, err
}

func daemonTimed(cfg runConfig, sz serveSize) (*outcome, error) {
	o := newOutcome()
	srv, setupS, err := medianSetup(sz.setupReps,
		func() (*serve.Server, error) { return newServer(sz, nil) },
		func(s *serve.Server) { stopServer(s) })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	var ops []opSample
	_, err = withSession(srv, o, nil, func(s *session) (err error) {
		if ops, err = s.load(cfg.seed, sz.conns, seconds(cfg.seconds), nil, 0); err == nil {
			countOps(o, ops)
			s.settle(o)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	o.metrics["ops_per_sec"] = opRate(ops)
	return o, nil
}

func daemonTraced(cfg runConfig, sz serveSize, o *outcome, tr *tracer) error {
	half := seconds(cfg.seconds / 2)
	m := o.metrics

	// The untraced reference: the same load with no spans and no op-log.
	srv, err := newServer(sz, nil)
	if err != nil {
		return err
	}
	var refNS float64
	_, err = withSession(srv, o, nil, func(s *session) error {
		start := time.Now()
		ops, err := s.load(cfg.seed, sz.conns, half, nil, 0)
		refNS = float64(time.Since(start).Nanoseconds()) / float64(max(len(ops), 1))
		countOps(o, ops)
		opTimeMetrics(o, latenciesMicros(ops))
		return err
	})
	if err != nil {
		return err
	}

	var oplog bytes.Buffer
	id := tr.begin("setup")
	start := time.Now()
	srv, err = newServer(sz, &oplog)
	m["topo.build_ms"] = time.Since(start).Seconds() * 1e3
	tr.end(id)
	if err != nil {
		return err
	}
	var (
		floor []float64
		ops   []opSample
		wall  time.Duration
		mem   memDelta
		drain time.Duration
	)
	rep, err := withSession(srv, o, tr, func(s *session) (err error) {
		// The wire floor: codec + queue + reply with no fabric work.
		tr.in("wire_floor", func() {
			for i := 0; i < sz.floorOps && err == nil; i++ {
				t := time.Now()
				_, err = s.ctl.call(serve.Request{Op: "stats"})
				floor = append(floor, float64(time.Since(t).Nanoseconds())/1e3)
			}
		})
		if err != nil {
			return err
		}
		id := tr.begin("timed")
		mem0, start := readMem(), time.Now()
		ops, err = s.load(cfg.seed, sz.conns, half, tr, id)
		wall, mem = time.Since(start), readMem().since(mem0)
		tr.end(id)
		if err != nil {
			return err
		}
		countOps(o, ops)
		tr.in("drain", func() { drain = s.settle(o) })
		return nil
	})
	if err != nil {
		return err
	}

	// Replay: the same fabric work from the session log, with no wire.
	start = time.Now()
	var replayed *serve.Report
	tr.in("replay", func() { replayed, err = serve.Replay(bytes.NewReader(oplog.Bytes()), 0, io.Discard) })
	replayS := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if replayed.Fingerprint != rep.Fingerprint || replayed.Events != rep.Events {
		o.problemf("replay fingerprint %#x (%d events) differs from live %#x (%d events)",
			replayed.Fingerprint, replayed.Events, rep.Fingerprint, rep.Events)
	}

	byKind := map[string][]float64{}
	for i, us := range latenciesMicros(ops) {
		byKind[ops[i].kind] = append(byKind[ops[i].kind], us/1e3)
	}
	for _, k := range opKinds {
		m["serve.op_ms."+k.kind+".p50"] = median(byKind[k.kind])
	}
	m["serve.wire_floor_us"] = median(floor)
	m["serve.replay_s"] = replayS
	m["serve.events_per_sec"] = float64(rep.Events) / wall.Seconds()
	m["serve.virt_s_per_wall_s"] = rep.Virtual.Seconds() / wall.Seconds()
	m["serve.drain_ms"] = drain.Seconds() * 1e3
	if rep.Ops > 0 {
		m["serve.oplog_bytes_per_op"] = float64(oplog.Len()) / float64(rep.Ops)
	}
	m["netsim.tap_events"] = float64(rep.Events)
	m["netsim.live_frames_end"] = float64(rep.LeakedFrames)
	m["trace_overhead_pct"] = overheadPct(refNS, float64(wall.Nanoseconds())/float64(max(len(ops), 1)))
	mem.metrics(m, int64(len(ops)))

	runMicros(tr, m)
	return nil
}
