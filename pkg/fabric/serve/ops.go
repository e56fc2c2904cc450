package serve

// The daemon's wire protocol and session op-log format.
//
// Wire: one JSON object per line in both directions (NDJSON). Requests
// decode strictly — an unknown field or op name is an error response, not
// a silent default. Entity references are names (the stable sorted names
// scenario.Index exposes); the daemon translates them into the scenario
// engine's index-based FaultOps, so the op-log stores exactly the
// vocabulary the batch sweep replays and shrinks.
//
// Op-log: line 1 is a header carrying the fully-defaulted Spec and the
// virtual-time quantum; every subsequent line is one applied op with the
// virtual boundary it was applied at. Fault ops are stored in the shared
// scenario codec (internal/scenario/ops.go); workload ops in the named
// forms below. Replay rebuilds the fabric from the header and re-applies
// every entry at its recorded boundary — the trace fingerprint must come
// out byte-identical at any shard count.

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/pkg/fabric"

	"repro/internal/scenario"
	"repro/internal/topo"
)

// Request is one client line: an op and its fields. Each op is one row
// of the op table (wireOps) and reads its own fields; a set field the op
// does not read is refused, as is an unknown op:
//
//	ping                  src, dst, class (priority or background), count, size, interval, timeout
//	stream                src, dst, bytes
//	burst                 src, dst, count, interval, payload
//	matrix                seed, flows, count, interval, payload
//	link-down, link-up    link
//	flap                  link, for
//	set-loss              link, side, rate, for
//	clear-loss            link, side
//	bridge-restart        bridge
//	host-move             host, for
//	host-return           host
//	partition             seed, for
//	heal, drain           —
//	info, stats, metrics, shutdown
//	                      —: control ops, answered at a boundary and never logged
type Request struct {
	Op string `json:"op"`

	Src      string          `json:"src,omitempty"`
	Dst      string          `json:"dst,omitempty"`
	Class    string          `json:"class,omitempty"` // latency class: "priority" or "background"
	Count    int             `json:"count,omitempty"`
	Size     int             `json:"size,omitempty"`
	Interval fabric.Duration `json:"interval,omitempty"`
	Timeout  fabric.Duration `json:"timeout,omitempty"`
	Bytes    int             `json:"bytes,omitempty"`
	Payload  int             `json:"payload,omitempty"`
	Flows    int             `json:"flows,omitempty"`
	Link     string          `json:"link,omitempty"`
	Bridge   string          `json:"bridge,omitempty"`
	Host     string          `json:"host,omitempty"`
	Side     int             `json:"side,omitempty"`
	Rate     float64         `json:"rate,omitempty"`
	For      fabric.Duration `json:"for,omitempty"` // self-heal horizon: flap/set-loss/host-move/partition
	Seed     int64           `json:"seed,omitempty"`
}

// Response is one daemon line. OK distinguishes accepted from rejected;
// accepted mutating ops carry the session sequence number and the virtual
// boundary they were applied at.
type Response struct {
	OK    bool            `json:"ok"`
	Seq   uint64          `json:"seq,omitempty"`
	At    fabric.Duration `json:"at,omitempty"`
	Error string          `json:"error,omitempty"`

	Info    *Info  `json:"info,omitempty"`
	Stats   *Stats `json:"stats,omitempty"`
	Metrics string `json:"metrics,omitempty"`
}

// Info describes the resident fabric: the entity names ops may reference.
type Info struct {
	Protocol string          `json:"protocol"`
	Shards   int             `json:"shards"`
	Quantum  fabric.Duration `json:"quantum"`
	Hosts    []string        `json:"hosts"`
	Links    []string        `json:"links"`
	Bridges  []string        `json:"bridges"`
	// Mobile lists the hosts with a pre-cabled spare jack — the only
	// legal host-move targets.
	Mobile []string `json:"mobile"`
}

// ClassStats summarizes one latency class's completed probes.
type ClassStats struct {
	Count uint64          `json:"count"`
	Lost  uint64          `json:"lost"`
	P50   fabric.Duration `json:"p50"`
	P90   fabric.Duration `json:"p90"`
	P99   fabric.Duration `json:"p99"`
	Max   fabric.Duration `json:"max"`
}

// Stats is the machine-readable live snapshot, taken with the fabric
// paused at a virtual-time boundary. Everything except WallSeconds is
// deterministic for a given op sequence.
type Stats struct {
	At          fabric.Duration `json:"at"`
	WallSeconds float64         `json:"wall_seconds"`

	Events         uint64 `json:"events"`
	Delivered      uint64 `json:"delivered"`
	DeliveredBytes uint64 `json:"delivered_bytes"`
	LiveFrames     int64  `json:"live_frames"`

	OpsApplied  uint64 `json:"ops_applied"`
	FlowsActive int    `json:"flows_active"`

	BurstOffered   int `json:"burst_offered"`
	BurstDelivered int `json:"burst_delivered"`

	TableEntries   int    `json:"table_entries"`
	TableEvictions uint64 `json:"table_evictions"`

	Windows   uint64 `json:"windows,omitempty"`
	Barriers  uint64 `json:"barriers,omitempty"`
	Exchanged uint64 `json:"exchanged,omitempty"`

	Classes map[string]ClassStats `json:"classes"`
}

// PingOp is the logged form of a ping workload op: a latency-classed
// probe train between two named hosts.
type PingOp struct {
	Src      string          `json:"src"`
	Dst      string          `json:"dst"`
	Count    int             `json:"count"`
	Size     int             `json:"size"`
	Interval fabric.Duration `json:"interval"`
	Timeout  fabric.Duration `json:"timeout"`
	Class    string          `json:"class"`
}

// StreamOp is the logged form of a stream workload op: a TCP-lite
// transfer between two named hosts.
type StreamOp struct {
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	Bytes int    `json:"bytes"`
}

// logHeader is the op-log's first line. Spec is fully defaulted, so a
// replay builds byte-for-byte the fabric the live session served (the
// shard count may be overridden — traces are shard-invariant).
type logHeader struct {
	Fabricserve int             `json:"fabricserve"`
	Spec        fabric.Spec     `json:"spec"`
	Quantum     fabric.Duration `json:"quantum"`
}

// logEntry is one applied op: the virtual boundary it was applied at, its
// session sequence number, and exactly one payload field. Fault ops are
// the scenario codec's wire form (indices into the Info name lists). The
// line a session ends its log with carries Seal and nothing else.
type logEntry struct {
	At  fabric.Duration `json:"at,omitempty"`
	Seq uint64          `json:"seq,omitempty"`

	Fault  []scenario.FaultOp `json:"fault,omitempty"`
	Ping   *PingOp            `json:"ping,omitempty"`
	Stream *StreamOp          `json:"stream,omitempty"`
	Heal   bool               `json:"heal,omitempty"`
	Drain  bool               `json:"drain,omitempty"`

	Seal *logSeal `json:"seal,omitempty"`
}

// logSeal is how the live session ended: its op count, virtual end and
// trace fingerprint. A log without one was cut short — a crash, a full
// disk, a copy stopped early — and a replay of it says so.
type logSeal struct {
	Ops         uint64          `json:"ops"`
	Virtual     fabric.Duration `json:"virtual"`
	Fingerprint uint64          `json:"fingerprint"`
}

// Workload defaults.
const (
	defaultPingCount    = 5
	defaultPingSize     = 56
	defaultPingInterval = 20 * time.Millisecond
	defaultPingTimeout  = time.Second
	defaultBurstCount   = 200
	defaultBurstSpacing = 10 * time.Microsecond
	defaultBurstPayload = 400
	defaultStreamBytes  = 64 << 10
	defaultMatrixFlows  = 4
	defaultFlapFor      = 50 * time.Millisecond
	defaultPartitionFor = 100 * time.Millisecond

	// burstPort is the UDP port every burst is addressed to: one sink per
	// destination host counts them all, and a burst's source socket is
	// unbound, so no burst picks a port that could be taken.
	burstPort = 7001

	// ClassPriority and ClassBackground are the latency classes. Ping ops
	// default to background; the soak's SLO is asserted on priority.
	ClassPriority   = "priority"
	ClassBackground = "background"
)

// MaxSpan bounds how far past its boundary an op may reach — every
// duration it carries or derives: a ping train's (count−1) × interval +
// timeout, a burst's count × interval, a fault's self-heal horizon — and
// how far a session's boundaries may go, live or in an op-log. A century
// is beyond any session, and a boundary plus a span plus the protocols'
// own timers stays inside the virtual clock's 292 years, so no op reaches
// a now + d that overflows it.
const MaxSpan = 100 * 365 * 24 * time.Hour

// checkSpan refuses an op whose last event would fall n × step + tail
// after its boundary, when that is negative or past MaxSpan.
func checkSpan(what string, n int, step, tail time.Duration) error {
	if n < 0 || step < 0 || tail < 0 || tail > MaxSpan || n > 0 && step > (MaxSpan-tail)/time.Duration(n) {
		return fmt.Errorf("%s: %d × %v + %v is not a span in [0, %v]", what, n, step, tail, MaxSpan)
	}
	return nil
}

// wireOp is one row of the op table: everything the daemon knows about
// one wire op. reads are the Request fields it reads besides op;
// lookupOp refuses any other set field. A mutating op's compile
// translates and defaults the request into the log entry applyEntry
// checks and executes; a control op answers at the boundary instead.
type wireOp struct {
	name    string
	reads   []string
	compile func(s *Server, req Request) (*logEntry, error)
	control func(s *Server, resp *Response)
}

// wireOps is the op table.
var wireOps = []wireOp{
	{name: "ping", reads: []string{"src", "dst", "class", "count", "size", "interval", "timeout"}, compile: compilePing},
	{name: "stream", reads: []string{"src", "dst", "bytes"}, compile: compileStream},
	{name: "burst", reads: []string{"src", "dst", "count", "interval", "payload"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			si, err := s.hostIx(req, req.Src, "src")
			if err != nil {
				return nil, err
			}
			di, err := s.hostIx(req, req.Dst, "dst")
			return []scenario.FaultOp{burst(si, di, req)}, err
		})},
	// A seeded burst matrix: flows random host pairs, every burst with the
	// request's sizing. The expansion is logged, so the matrix a replay
	// drives is the one that ran, whatever this derivation does.
	{name: "matrix", reads: []string{"seed", "flows", "count", "interval", "payload"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			hosts := s.index.Hosts
			if len(hosts) < 2 {
				return nil, fmt.Errorf("matrix requires at least two hosts")
			}
			flows := cmp.Or(req.Flows, defaultMatrixFlows)
			if flows < 1 || flows > 256 {
				return nil, fmt.Errorf("matrix flows %d outside [1,256]", flows)
			}
			rng := newSeededRand(req.Seed)
			var ops []scenario.FaultOp
			for range flows {
				src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts))
				if dst == src {
					dst = (dst + 1) % len(hosts)
				}
				ops = append(ops, burst(src, dst, req))
			}
			return ops, nil
		})},
	{name: "link-down", reads: []string{"link"}, compile: linkOp(scenario.OpLinkDown)},
	{name: "link-up", reads: []string{"link"}, compile: linkOp(scenario.OpLinkUp)},
	{name: "flap", reads: []string{"link", "for"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			li, err := s.link(req)
			return []scenario.FaultOp{
				{Kind: scenario.OpLinkDown, Link: li},
				{At: cmp.Or(req.For.D(), defaultFlapFor), Kind: scenario.OpLinkUp, Link: li},
			}, err
		})},
	{name: "set-loss", reads: []string{"link", "side", "rate", "for"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			li, err := s.link(req)
			ops := []scenario.FaultOp{{Kind: scenario.OpSetLoss, Link: li, Side: req.Side, Rate: req.Rate}}
			if d := req.For.D(); d > 0 {
				ops = append(ops, scenario.FaultOp{At: d, Kind: scenario.OpClearLoss, Link: li, Side: req.Side})
			}
			return ops, err
		})},
	{name: "clear-loss", reads: []string{"link", "side"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			li, err := s.link(req)
			return []scenario.FaultOp{{Kind: scenario.OpClearLoss, Link: li, Side: req.Side}}, err
		})},
	{name: "bridge-restart", reads: []string{"bridge"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			bi, err := resolve(req, "bridge", "a bridge name", req.Bridge, s.index.Bridges)
			return []scenario.FaultOp{{Kind: scenario.OpBridgeRestart, Bridge: bi}}, err
		})},
	{name: "host-move", reads: []string{"host", "for"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			hi, err := s.hostIx(req, req.Host, "a host name")
			ops := []scenario.FaultOp{{Kind: scenario.OpHostMove, Host: hi}}
			if d := req.For.D(); d > 0 {
				ops = append(ops, scenario.FaultOp{At: d, Kind: scenario.OpHostReturn, Host: hi})
			}
			return ops, err
		})},
	{name: "host-return", reads: []string{"host"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			hi, err := s.hostIx(req, req.Host, "a host name")
			return []scenario.FaultOp{{Kind: scenario.OpHostReturn, Host: hi}}, err
		})},
	{name: "partition", reads: []string{"seed", "for"},
		compile: fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
			cut := s.index.PartitionCut(newSeededRand(req.Seed))
			if len(cut) == 0 {
				return nil, fmt.Errorf("partition: the bridge graph yields no cut")
			}
			d := cmp.Or(req.For.D(), defaultPartitionFor)
			var ops []scenario.FaultOp
			for _, li := range cut {
				ops = append(ops,
					scenario.FaultOp{Kind: scenario.OpLinkDown, Link: li},
					scenario.FaultOp{At: d, Kind: scenario.OpLinkUp, Link: li})
			}
			return ops, nil
		})},
	{name: "heal", compile: func(*Server, Request) (*logEntry, error) { return &logEntry{Heal: true}, nil }},
	{name: "drain", compile: func(*Server, Request) (*logEntry, error) { return &logEntry{Drain: true}, nil }},
	{name: "info", control: func(s *Server, resp *Response) { resp.Info = s.info() }},
	{name: "stats", control: func(s *Server, resp *Response) { resp.Stats = s.stats() }},
	{name: "metrics", control: func(s *Server, resp *Response) { resp.Metrics = s.renderMetrics() }},
	{name: "shutdown", control: func(s *Server, resp *Response) { s.stopping, resp.Seq = true, s.seq }},
}

// lookupOp is the op table's row for the request, or the error refusing
// it: an unknown op, or a set field the op does not read.
func lookupOp(req Request) (*wireOp, error) {
	for i := range wireOps {
		if o := &wireOps[i]; o.name == req.Op {
			return o, topo.CheckKeys(req, "", req.Op, opKey, o.reads)
		}
	}
	return nil, fmt.Errorf("unknown op %q", req.Op)
}

var opKey = []string{"op"}

// compilePing defaults a ping request; applyEntry checks it.
func compilePing(_ *Server, req Request) (*logEntry, error) {
	return &logEntry{Ping: &PingOp{
		Src: req.Src, Dst: req.Dst,
		Count:    cmp.Or(req.Count, defaultPingCount),
		Size:     cmp.Or(req.Size, defaultPingSize),
		Interval: cmp.Or(req.Interval, fabric.Duration(defaultPingInterval)),
		Timeout:  cmp.Or(req.Timeout, fabric.Duration(defaultPingTimeout)),
		Class:    cmp.Or(req.Class, ClassBackground),
	}}, nil
}

// check refuses a defaulted ping the wire would refuse. applyEntry runs
// it on the live and the replay path alike, so a hand-written op-log line
// gets the same bounds as a request.
func (p *PingOp) check() error {
	switch {
	case p.Src == "" || p.Dst == "":
		return fmt.Errorf("ping requires src and dst")
	case p.Src == p.Dst:
		return fmt.Errorf("ping src and dst are both %q", p.Src)
	case p.Count < 1 || p.Count > 1000:
		return fmt.Errorf("ping count %d outside [1,1000]", p.Count)
	case p.Size < 0 || p.Size > 1400:
		return fmt.Errorf("ping size %d outside [0,1400]", p.Size)
	case p.Interval.D() <= 0 || p.Timeout.D() <= 0:
		return fmt.Errorf("ping interval and timeout must be positive")
	case p.Class != ClassPriority && p.Class != ClassBackground:
		return fmt.Errorf("ping class %q is neither %s nor %s", p.Class, ClassPriority, ClassBackground)
	}
	return checkSpan("ping", p.Count-1, p.Interval.D(), p.Timeout.D())
}

// compileStream defaults a stream request; applyEntry checks it.
func compileStream(_ *Server, req Request) (*logEntry, error) {
	return &logEntry{Stream: &StreamOp{Src: req.Src, Dst: req.Dst, Bytes: cmp.Or(req.Bytes, defaultStreamBytes)}}, nil
}

// check refuses a defaulted stream the wire would refuse (see
// PingOp.check).
func (st *StreamOp) check() error {
	switch {
	case st.Src == "" || st.Dst == "":
		return fmt.Errorf("stream requires src and dst")
	case st.Src == st.Dst:
		return fmt.Errorf("stream src and dst are both %q", st.Src)
	case st.Bytes < 1 || st.Bytes > 64<<20:
		return fmt.Errorf("stream bytes %d outside [1,64MiB]", st.Bytes)
	}
	return nil
}

// fault is a fault op's compile step: expand translates the request into
// scenario ops, which applyEntry validates. One request may expand to
// several ops (a flap is down+up, a partition is a whole cut); the
// expansion — not the request — is what the op-log stores, so replay
// never re-derives a cut or a port assignment.
func fault(expand func(s *Server, req Request) ([]scenario.FaultOp, error)) func(*Server, Request) (*logEntry, error) {
	return func(s *Server, req Request) (*logEntry, error) {
		ops, err := expand(s, req)
		if err != nil {
			return nil, err
		}
		return &logEntry{Fault: ops}, nil
	}
}

// linkOp is the compile step of an op that takes one link down or up.
func linkOp(kind scenario.FaultKind) func(*Server, Request) (*logEntry, error) {
	return fault(func(s *Server, req Request) ([]scenario.FaultOp, error) {
		li, err := s.link(req)
		return []scenario.FaultOp{{Kind: kind, Link: li}}, err
	})
}

// resolve looks up the name a request gives for a noun (what names it
// in the refusal of an absent name) in names.
func resolve(req Request, noun, what, name string, names []string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("%s requires %s", req.Op, what)
	}
	i := slices.Index(names, name)
	if i < 0 {
		return 0, fmt.Errorf("unknown %s %q", noun, name)
	}
	return i, nil
}

func (s *Server) link(req Request) (int, error) {
	return resolve(req, "link", "a link name", req.Link, s.index.Links)
}

func (s *Server) hostIx(req Request, name, what string) (int, error) {
	return resolve(req, "host", what, name, s.index.Hosts)
}

// burst is one UDP burst src → dst with the request's sizing.
func burst(src, dst int, req Request) scenario.FaultOp {
	return scenario.FaultOp{
		Kind: scenario.OpBurst, Src: src, Dst: dst, Port: burstPort,
		Count:    cmp.Or(req.Count, defaultBurstCount),
		Interval: cmp.Or(req.Interval.D(), defaultBurstSpacing),
		Payload:  cmp.Or(req.Payload, defaultBurstPayload),
	}
}
