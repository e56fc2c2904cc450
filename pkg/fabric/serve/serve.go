// Package serve is the fabric's live traffic-serving daemon: it keeps a
// sharded fabric resident and applies streamed workload and fault ops at
// quantized virtual-time boundaries, instead of compiling a whole run
// up-front the way the batch Runner does.
//
// The determinism contract survives streaming because of one rule: ops
// mutate the fabric only from driver context, at a boundary the simulation
// was advanced to by a bounded RunFor slice. The wall-clock order in which
// clients' requests arrive picks WHICH boundary an op lands on — that much
// is non-deterministic, it is live traffic — but once accepted, the pair
// (virtual boundary, op) is appended to the session op-log, and replaying
// the log re-applies every op at its recorded boundary. Because a sliced
// run equals an unbounded run over the same interval (DESIGN.md §8; pinned
// by the slice-boundary tests), the replay's trace fingerprint is
// byte-identical to the live session's — at any shard count.
//
// A Server owns its fabric exclusively and runs every simulation step from
// one goroutine; connection handlers only enqueue decoded requests.
// Completion callbacks (ping trains, streams) fire inside shard windows,
// where shards run ahead of one another, so they write only their own
// flow's state; the serving loop folds finished flows into the histograms
// at boundaries.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/pkg/fabric"

	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// DefaultQuantum is the virtual-time grid ops are applied on: the serving
// loop advances the fabric in RunFor slices of this length, and every
// accepted op lands exactly on a slice boundary.
const DefaultQuantum = 10 * time.Millisecond

// maxFlows bounds the retained per-flow stat list; beyond it the oldest
// folded flows are dropped (their samples live on in the class
// histograms).
const maxFlows = 512

// Options configures a Server.
type Options struct {
	// Spec is the fabric to serve: it names no workload kind, and an
	// empty topology family defaults to figure2, mirroring the batch
	// runner.
	Spec fabric.Spec
	// Quantum is the op-application grid (DefaultQuantum when zero).
	Quantum time.Duration
	// OpLog, when non-nil, receives the session op-log: a header line
	// with the defaulted Spec, then one line per accepted op.
	OpLog io.Writer
	// Out receives the human-readable session report at shutdown.
	Out io.Writer
}

// Report is the machine-checkable outcome of a session, live or replayed.
type Report struct {
	Virtual        time.Duration
	Ops            uint64
	Events         uint64
	Fingerprint    uint64
	Delivered      uint64
	DeliveredBytes uint64
	LeakedFrames   int64
	BurstOffered   int
	BurstDelivered int
	StreamsDone    int
	StreamsOK      int
	TableEntries   int
	TableEvictions uint64
	Classes        map[string]ClassStats
	// Text is the rendered report; its trailing lines ("leaked frames",
	// "trace fingerprint") are stable grep targets for CI.
	Text string
}

// flow is one workload op's completion state. The op's callbacks — which
// run inside a shard window — write only these fields, and only
// before setting done; the serving loop reads them at boundaries, after
// the window join established happens-before. A probe train keeps its
// answered RTTs (at most the op's count, 1000); histograms exist per
// class, and per flow only while /metrics renders one.
type flow struct {
	id     int
	label  string
	class  string
	rtts   []time.Duration
	lost   uint64
	stream *app.Streamer // a stream op's session, until it is folded
	done   bool
}

// classAgg accumulates one latency class across folded flows.
type classAgg struct {
	hist *metrics.Histogram
	lost uint64
}

type request struct {
	req  Request
	resp chan Response
}

// Server keeps a fabric resident and serves streamed ops against it.
type Server struct {
	spec    fabric.Spec
	quantum time.Duration
	out     io.Writer

	built *fabric.Built
	index *scenario.Index
	fp    *netsim.TapFingerprint

	// Written by the trace tap, read from driver context.
	delivered      uint64
	deliveredBytes uint64

	opLog    *bufio.Writer
	opLogErr error

	seq      uint64
	opCounts map[string]uint64

	// flows is the bounded per-flow stat list /metrics renders; pending
	// is its not-yet-folded part, in creation order — all a boundary
	// looks at.
	flows        []*flow
	pending      []*flow
	flowsDropped int
	nextFlowID   int
	classes      map[string]*classAgg
	sinks        []*app.Sink
	burstOffered int
	streamsDone  int
	streamsOK    int

	reqCh    chan *request
	doneCh   chan struct{}
	stopping bool

	wallStart time.Time

	report *Report
}

// CheckSpec returns the defaulted spec a session serves, or the error
// refusing it: a spec that names a workload kind (the daemon serves a
// fabric, and its clients' ops are the workload) or one WithDefaults
// refuses. New and Replay refuse a spec with it.
func CheckSpec(s fabric.Spec) (fabric.Spec, error) {
	if k := s.Workload.Kind; k != "" {
		return fabric.Spec{}, fmt.Errorf("serve: the spec names workload kind %q; the daemon serves a fabric, and its clients' ops are the workload", k)
	}
	return s.WithDefaults()
}

// newServer builds the fabric and the serving state without starting the
// loop; New starts the live loop, Replay drives the same state inline.
func newServer(o Options) (*Server, error) {
	spec, err := CheckSpec(o.Spec)
	if err != nil {
		return nil, err
	}
	quantum := o.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	if quantum < 0 {
		return nil, fmt.Errorf("serve: negative quantum %v", quantum)
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	s := &Server{
		spec:      spec,
		quantum:   quantum,
		out:       o.Out,
		fp:        netsim.NewTapFingerprint(),
		opCounts:  map[string]uint64{},
		classes:   map[string]*classAgg{},
		reqCh:     make(chan *request, 64),
		doneCh:    make(chan struct{}),
		wallStart: time.Now(), // uptime reporting in status replies; the fabric runs on virtual time
	}
	if s.out == nil {
		s.out = io.Discard
	}
	// Attach the trace tap before any bridge starts, so the fingerprint
	// covers the warm-up exactly as the batch Runner's does.
	opts.Observers = append(opts.Observers, func(n *topo.Net) {
		n.Tap(func(ev netsim.TapEvent) {
			s.fp.Observe(ev)
			if ev.Kind == netsim.TapDeliver {
				s.delivered++
				s.deliveredBytes += uint64(len(ev.Frame))
			}
		})
	})
	built, err := fabric.BuildTopology(opts, spec.Topology)
	if err != nil {
		return nil, err
	}
	s.built = built
	s.index = scenario.NewIndex(built)
	if o.OpLog != nil {
		s.opLog = bufio.NewWriter(o.OpLog)
		hdr, err := json.Marshal(logHeader{Fabricserve: 1, Spec: spec, Quantum: fabric.Duration(quantum)})
		if err != nil {
			return nil, err
		}
		if _, err := s.opLog.Write(append(hdr, '\n')); err != nil {
			return nil, fmt.Errorf("serve: op-log: %w", err)
		}
		if err := s.opLog.Flush(); err != nil {
			return nil, fmt.Errorf("serve: op-log: %w", err)
		}
	}
	return s, nil
}

// New builds the fabric (including warm-up) and starts the serving loop.
func New(o Options) (*Server, error) {
	s, err := newServer(o)
	if err != nil {
		return nil, err
	}
	//fabriclint:nondeterministic single serving loop owns the engine; requests are serialized through reqCh
	go s.loop()
	return s, nil
}

// Serve accepts connections until the server shuts down. Each connection
// carries newline-delimited JSON requests answered in order. On shutdown
// it waits for the connection handlers to flush their final replies
// (bounded by the teardown deadline) before returning, so a caller may
// exit as soon as Serve does.
func (s *Server) Serve(ln net.Listener) error {
	//fabriclint:nondeterministic unblocks Accept on shutdown; never touches the engine
	go func() {
		<-s.doneCh
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.doneCh:
				return nil
			default:
				return err
			}
		}
		wg.Add(1)
		//fabriclint:nondeterministic per-connection reader; ops reach the engine only via the serialized reqCh
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Shutdown asks the serving loop to drain and stop; Wait blocks for it.
func (s *Server) Shutdown() { s.do(Request{Op: "shutdown"}) }

// Wait blocks until the session finished and returns its report.
func (s *Server) Wait() *Report {
	<-s.doneCh
	return s.report
}

// MetricsHandler serves the text exposition of the live session metrics.
// Rendering is a request to the serving loop, so the snapshot is taken at
// a boundary with the fabric paused.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		resp := s.do(Request{Op: "metrics"})
		if resp.Error != "" {
			http.Error(w, resp.Error, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, resp.Metrics)
	})
}

// do enqueues one request and waits for its response.
func (s *Server) do(req Request) Response {
	r := &request{req: req, resp: make(chan Response, 1)}
	select {
	case s.reqCh <- r:
	case <-s.doneCh:
		return Response{Error: "server shut down"}
	}
	select {
	case resp := <-r.resp:
		return resp
	case <-s.doneCh:
		// The loop may have answered and exited before this select ran;
		// prefer the delivered response over the shutdown race.
		select {
		case resp := <-r.resp:
			return resp
		default:
			return Response{Error: "server shut down"}
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	connDone := make(chan struct{})
	defer close(connDone)
	//fabriclint:nondeterministic connection teardown watchdog; no engine access
	go func() {
		select {
		case <-s.doneCh:
			// Kick the blocked scanner with a deadline rather than an
			// immediate close, so an in-flight reply (the shutdown ack)
			// still flushes before the deferred close tears down.
			conn.SetDeadline(time.Now().Add(200 * time.Millisecond)) // socket teardown deadline; I/O plumbing, not simulation time
		case <-connDone:
		}
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := enc.Encode(s.answer(line)); err != nil {
			return
		}
	}
}

// answer decodes one request line strictly and runs it through the
// serving loop; a line that does not decode is answered with the error.
func (s *Server) answer(line []byte) Response {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Response{Error: fmt.Sprintf("bad request: %v", err)}
	}
	if dec.More() {
		return Response{Error: "bad request: trailing data after the op object"}
	}
	return s.do(req)
}

// loop is the single goroutine that touches the fabric: it gathers
// queued requests, applies them at the current boundary, then advances
// one quantum. When the fabric is quiescent and no request is queued it
// parks on the channel instead of spinning through empty windows.
func (s *Server) loop() {
	defer close(s.doneCh)
	for !s.stopping {
		for _, r := range s.gather() {
			if s.stopping {
				r.resp <- Response{Error: "server shutting down"}
				continue
			}
			s.handle(r)
		}
		if s.stopping {
			break
		}
		s.advance()
	}
	s.finish()
	io.WriteString(s.out, s.report.Text)
	seal := s.report.seal()
	s.logAppend(&logEntry{Seal: &seal})
}

// advance runs one quantum, unless nothing is scheduled, and the boundary
// after it.
func (s *Server) advance() {
	if !s.built.Quiescent() {
		s.built.RunFor(s.quantum)
	}
	s.boundary()
}

// boundary is the loop's bookkeeping between slices, and it costs what
// changed: flows that finished fold, and once the fabric holds no frame
// the fingerprint drops the identities nobody can ask about again. An
// empty quantum — timers pending, nothing in flight, nothing finished —
// walks the pending flows and touches nothing else.
func (s *Server) boundary() {
	s.foldFlows()
	if s.built.LiveFrames() == 0 {
		s.fp.Forget()
	}
}

// gather drains every queued request; with nothing queued and nothing
// scheduled it blocks until the next request arrives.
func (s *Server) gather() []*request {
	var reqs []*request
	for {
		select {
		case r := <-s.reqCh:
			reqs = append(reqs, r)
		default:
			if len(reqs) > 0 || !s.built.Quiescent() {
				return reqs
			}
			reqs = append(reqs, <-s.reqCh)
		}
	}
}

// handle answers one request at the current boundary. Control ops never
// touch the op-log; mutating ops are compiled, applied, logged, then
// acknowledged with their sequence number and boundary.
func (s *Server) handle(r *request) {
	now := fabric.Duration(s.built.Now())
	o, err := lookupOp(r.req)
	if err == nil && o.control != nil {
		resp := Response{OK: true, At: now}
		o.control(s, &resp)
		r.resp <- resp
		return
	}
	var entry *logEntry
	if err == nil {
		entry, err = o.compile(s, r.req)
	}
	if err == nil {
		entry.At = now
		err = s.applyEntry(entry)
	}
	if err != nil {
		r.resp <- Response{Error: err.Error()}
		return
	}
	s.seq++
	entry.Seq = s.seq
	s.opCounts[r.req.Op]++
	s.logAppend(entry)
	r.resp <- Response{OK: true, Seq: s.seq, At: fabric.Duration(s.built.Now())}
}

// applyEntry executes one op at the current boundary. It is the shared
// execution path of live serving and replay: both feed it identical
// entries in identical order at identical virtual times, which is the
// whole replay-determinism argument. Both also get its checks, made
// before anything is scheduled: the boundary and every span the op
// derives stay within MaxSpan, and a ping or stream is within the wire's
// bounds.
func (s *Server) applyEntry(e *logEntry) error {
	at := s.built.Now()
	if at > MaxSpan {
		return fmt.Errorf("boundary %v is past the %v horizon", at, MaxSpan)
	}
	switch {
	case len(e.Fault) > 0:
		for _, op := range e.Fault {
			if err := s.index.Validate(op); err != nil {
				return err
			}
			if err := checkSpan(s.index.Describe(op), op.Count, op.Interval, op.At); err != nil {
				return err
			}
		}
		offered, sinks := s.index.Apply(e.Fault, at)
		s.burstOffered += offered
		s.sinks = append(s.sinks, sinks...)
	case e.Ping != nil:
		if err := e.Ping.check(); err != nil {
			return err
		}
		return s.applyPing(e.Ping)
	case e.Stream != nil:
		if err := e.Stream.check(); err != nil {
			return err
		}
		return s.applyStream(e.Stream)
	case e.Heal:
		s.index.Heal()
	case e.Drain:
		// Run to quiescence: re-anchors the boundary grid at the drain
		// time, which is why drains must be logged like any mutation.
		s.built.Run()
		s.boundary()
	default:
		return fmt.Errorf("empty op entry")
	}
	return nil
}

func (s *Server) newFlow(label, class string) *flow {
	s.nextFlowID++
	fl := &flow{id: s.nextFlowID, label: label, class: class}
	s.flows = append(s.flows, fl)
	s.pending = append(s.pending, fl)
	return fl
}

// hosts resolves an op's src and dst host names.
func (s *Server) hosts(src, dst string) (*host.Host, *host.Host, error) {
	var hs [2]*host.Host
	for i, name := range []string{src, dst} {
		h, ok := s.built.Hosts[name]
		if !ok {
			return nil, nil, fmt.Errorf("unknown host %q", name)
		}
		hs[i] = h
	}
	return hs[0], hs[1], nil
}

func (s *Server) applyPing(p *PingOp) error {
	src, dst, err := s.hosts(p.Src, p.Dst)
	if err != nil {
		return err
	}
	ip := dst.IP()
	fl := s.newFlow(p.Src+">"+p.Dst, p.Class)
	count, size := p.Count, p.Size
	interval, timeout := p.Interval.D(), p.Timeout.D()
	s.built.Engine.At(s.built.Now(), func() {
		src.PingSeries(ip, count, size, interval, timeout, func(rs []host.PingResult) {
			fl.rtts = make([]time.Duration, 0, len(rs))
			for _, r := range rs {
				if r.Err == nil {
					fl.rtts = append(fl.rtts, r.RTT)
				} else {
					fl.lost++
				}
			}
			fl.done = true
		})
	})
	return nil
}

func (s *Server) applyStream(st *StreamOp) error {
	server, client, err := s.hosts(st.Src, st.Dst)
	if err != nil {
		return err
	}
	fl := s.newFlow(st.Src+">"+st.Dst, "stream")
	cfg := app.DefaultStreamConfig()
	cfg.Size = st.Bytes
	cfg.Port = 0 // any free port on the server
	s.built.Engine.At(s.built.Now(), func() {
		fl.stream = app.StartStream(server, client, cfg, func(*app.StreamReport) { fl.done = true })
	})
	return nil
}

// foldFlows merges every completed pending flow into its class aggregate
// and takes it off the pending list; flows still running stay, in order.
// Called only from driver context: flow completion happened in an
// already-joined window, and recording is order-independent, so the class
// histograms are identical live and replayed. A finished stream that never
// connected gives its server port back here, where every shard is paused —
// its own callbacks run on the client and must not touch the server; live
// and replay both fold before they apply an op, so a later stream finds
// the same ports free in both. It then trims the per-flow
// list to its bound, dropping oldest folded flows first — a walk it makes
// only when there is a folded flow to drop.
func (s *Server) foldFlows() {
	running := s.pending[:0]
	for _, fl := range s.pending {
		if !fl.done {
			running = append(running, fl)
			continue
		}
		if fl.stream != nil {
			fl.stream.Release()
			s.streamsDone++
			if fl.stream.Report().Complete {
				s.streamsOK++
			}
			fl.stream = nil
			continue
		}
		agg := s.classes[fl.class]
		if agg == nil {
			agg = &classAgg{hist: metrics.NewHistogram()}
			s.classes[fl.class] = agg
		}
		for _, rtt := range fl.rtts {
			agg.hist.Record(rtt)
		}
		agg.lost += fl.lost
	}
	clear(s.pending[len(running):])
	s.pending = running
	// Every flow not pending is folded, and here every done flow is.
	if excess := len(s.flows) - maxFlows; excess > 0 && len(s.flows) > len(s.pending) {
		kept := s.flows[:0]
		for _, fl := range s.flows {
			if excess > 0 && fl.done {
				excess--
				s.flowsDropped++
				continue
			}
			kept = append(kept, fl)
		}
		clear(s.flows[len(kept):])
		s.flows = kept
	}
}

func (s *Server) logAppend(e *logEntry) {
	if s.opLog == nil || s.opLogErr != nil {
		return
	}
	b, err := json.Marshal(e)
	if err == nil {
		_, err = s.opLog.Write(append(b, '\n'))
	}
	if err == nil {
		err = s.opLog.Flush()
	}
	if err != nil {
		s.opLogErr = err
		fmt.Fprintf(s.out, "op-log write failed (logging disabled): %v\n", err)
	}
}

// finish drains the fabric and closes the session: every in-flight frame
// flows out through the LiveFrames gate, remaining flows fold, expired
// table and proxy state is swept, and the report — fingerprint included —
// is rendered into s.report for the caller to print. No report line
// depends on the shard count, so live and replayed reports diff clean
// whatever shard count either ran at.
func (s *Server) finish() {
	s.built.Run()
	s.boundary()
	now := s.built.Now()
	entries, evictions := s.sweepTables(now)
	burstDelivered := 0
	for _, sk := range s.sinks {
		burstDelivered += sk.Count()
	}
	rep := &Report{
		Virtual:        now,
		Ops:            s.seq,
		Events:         s.fp.Events(),
		Fingerprint:    s.fp.Sum(),
		Delivered:      s.delivered,
		DeliveredBytes: s.deliveredBytes,
		LeakedFrames:   s.built.LiveFrames(),
		BurstOffered:   s.burstOffered,
		BurstDelivered: burstDelivered,
		StreamsDone:    s.streamsDone,
		StreamsOK:      s.streamsOK,
		TableEntries:   entries,
		TableEvictions: evictions,
		Classes:        s.classStats(),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fabricserve session: virtual=%v ops=%d\n", rep.Virtual, rep.Ops)
	for _, name := range sortedClassNames(rep.Classes) {
		cs := rep.Classes[name]
		fmt.Fprintf(&b, "class %s: n=%d lost=%d p50=%v p90=%v p99=%v max=%v\n",
			name, cs.Count, cs.Lost, cs.P50.D(), cs.P90.D(), cs.P99.D(), cs.Max.D())
	}
	if rep.StreamsDone > 0 {
		fmt.Fprintf(&b, "streams: done=%d complete=%d\n", rep.StreamsDone, rep.StreamsOK)
	}
	if rep.BurstOffered > 0 {
		fmt.Fprintf(&b, "bursts: offered=%d delivered=%d\n", rep.BurstOffered, rep.BurstDelivered)
	}
	fmt.Fprintf(&b, "tables after sweep: entries=%d evictions=%d\n", rep.TableEntries, rep.TableEvictions)
	fmt.Fprintf(&b, "leaked frames: %d\n", rep.LeakedFrames)
	fmt.Fprintf(&b, "trace fingerprint: %#016x (events=%d)\n", rep.Fingerprint, rep.Events)
	rep.Text = b.String()
	s.report = rep
}

// seal is the op-log seal of the session r reports.
func (r *Report) seal() logSeal {
	return logSeal{Ops: r.Ops, Virtual: fabric.Duration(r.Virtual), Fingerprint: r.Fingerprint}
}

func sortedClassNames(m map[string]ClassStats) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Server) classStats() map[string]ClassStats {
	out := make(map[string]ClassStats, len(s.classes))
	for name, agg := range s.classes {
		cs := ClassStats{Count: agg.hist.Count(), Lost: agg.lost}
		if cs.Count > 0 {
			cs.P50 = fabric.Duration(agg.hist.Percentile(50))
			cs.P90 = fabric.Duration(agg.hist.Percentile(90))
			cs.P99 = fabric.Duration(agg.hist.Percentile(99))
			cs.Max = fabric.Duration(agg.hist.Max())
		}
		out[name] = cs
	}
	return out
}

// sweepTables eagerly expires dead table and proxy state on every bridge
// at now — the session-end corpse sweep — and reports what stayed
// resident.
func (s *Server) sweepTables(now time.Duration) (entries int, evictions uint64) {
	for _, br := range s.built.Bridges {
		for _, t := range br.PathTables() {
			t.FlushExpired(now)
		}
		if p, ok := br.(interface{ SweepProxy(time.Duration) }); ok {
			p.SweepProxy(now)
		}
	}
	return s.tableStats()
}

// tableStats reads resident table state without sweeping (the live
// stats/metrics view).
func (s *Server) tableStats() (entries int, evictions uint64) {
	for _, br := range s.built.Bridges {
		for _, t := range br.PathTables() {
			entries += t.Len()
			evictions += t.Evictions()
		}
	}
	return entries, evictions
}

func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Replay re-executes a session op-log against a freshly built fabric,
// applying every entry at its recorded virtual boundary. shards > 0
// overrides the header's shard count — the fingerprint must not change.
// A sealed log must replay to its seal, or Replay fails; the report then
// reads as the live one did. An unsealed log replays as far as it goes,
// and its report ends "op-log: unsealed (N ops)".
func Replay(r io.Reader, shards int, out io.Writer) (*Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("serve: empty op-log")
	}
	var hdr logHeader
	dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("serve: op-log header: %w", err)
	}
	if hdr.Fabricserve != 1 {
		return nil, fmt.Errorf("serve: unsupported op-log version %d", hdr.Fabricserve)
	}
	spec := hdr.Spec
	if shards > 0 {
		spec.Shards = shards
	}
	s, err := newServer(Options{Spec: spec, Quantum: hdr.Quantum.D(), Out: out})
	if err != nil {
		return nil, err
	}
	lineNo := 1
	var seal *logSeal
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if seal != nil {
			return nil, fmt.Errorf("serve: op-log line %d: entry after the seal", lineNo)
		}
		var e logEntry
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("serve: op-log line %d: %w", lineNo, err)
		}
		if e.Seal != nil {
			if e.At != 0 || e.Seq != 0 || e.Fault != nil || e.Ping != nil || e.Stream != nil || e.Heal || e.Drain {
				return nil, fmt.Errorf("serve: op-log line %d: the seal carries an op", lineNo)
			}
			seal = e.Seal
			continue
		}
		// The daemon numbers accepted ops 1, 2, 3…: a duplicated, dropped
		// or reordered line would otherwise replay silently as another run.
		if e.Seq != s.seq+1 {
			return nil, fmt.Errorf("serve: op-log line %d: seq %d, want %d", lineNo, e.Seq, s.seq+1)
		}
		at := e.At.D()
		now := s.built.Now()
		if at < now {
			return nil, fmt.Errorf("serve: op-log line %d: time moves backwards (%v < %v)", lineNo, at, now)
		}
		if at > MaxSpan {
			return nil, fmt.Errorf("serve: op-log line %d: boundary %v is past the %v horizon", lineNo, at, MaxSpan)
		}
		if at > now {
			s.built.RunUntil(at)
			// What the live loop did before it applied this entry: flows
			// that finished fold (a stream's port is released there), and
			// a drained fabric's frame identities are forgotten.
			s.boundary()
		}
		if err := s.applyEntry(&e); err != nil {
			return nil, fmt.Errorf("serve: op-log line %d: %w", lineNo, err)
		}
		s.seq++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The live loop may have idled on past its last op before it shut
	// down; the seal says where it stopped.
	if seal != nil && seal.Virtual.D() > s.built.Now() {
		end := seal.Virtual.D()
		if end > MaxSpan {
			return nil, fmt.Errorf("serve: op-log seal: virtual end %v is past the %v horizon", end, MaxSpan)
		}
		s.built.RunUntil(end)
		s.boundary()
	}
	s.finish()
	rep := s.report
	if seal == nil {
		rep.Text += fmt.Sprintf("op-log: unsealed (%d ops)\n", rep.Ops)
	} else if got := rep.seal(); got != *seal {
		return nil, fmt.Errorf("serve: op-log seal: the replay ended at ops=%d virtual=%v fingerprint=%#016x, the seal says ops=%d virtual=%v fingerprint=%#016x",
			got.Ops, got.Virtual.D(), got.Fingerprint, seal.Ops, seal.Virtual.D(), seal.Fingerprint)
	}
	io.WriteString(s.out, rep.Text)
	return rep, nil
}
