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
	"fmt"
	"time"

	"repro/pkg/fabric"

	"repro/internal/scenario"
)

// Request is one client line. Op selects the action; the other fields are
// its parameters (named entities, counts, durations). Unused fields must
// be absent or zero.
//
// Ops:
//
//	workload: ping, stream, burst, matrix
//	fault:    link-down, link-up, flap, set-loss, clear-loss,
//	          bridge-restart, host-move, host-return, partition, heal
//	control:  info, stats, metrics, drain, shutdown
type Request struct {
	Op string `json:"op"`

	// Workload parameters.
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

	// Fault parameters.
	Link   string          `json:"link,omitempty"`
	Bridge string          `json:"bridge,omitempty"`
	Host   string          `json:"host,omitempty"`
	Side   int             `json:"side,omitempty"`
	Rate   float64         `json:"rate,omitempty"`
	For    fabric.Duration `json:"for,omitempty"` // self-heal horizon: flap/set-loss/host-move/partition
	Seed   int64           `json:"seed,omitempty"`
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

// hostPair refuses an op whose src or dst is missing or names no host.
func (s *Server) hostPair(op, src, dst string) error {
	if src == "" || dst == "" {
		return fmt.Errorf("%s requires src and dst", op)
	}
	for _, h := range []string{src, dst} {
		if _, ok := s.index.HostIndex(h); !ok {
			return fmt.Errorf("unknown host %q", h)
		}
	}
	return nil
}

// compilePing translates and defaults a ping request.
func (s *Server) compilePing(req Request) (*PingOp, error) {
	if err := s.hostPair("ping", req.Src, req.Dst); err != nil {
		return nil, err
	}
	p := &PingOp{
		Src: req.Src, Dst: req.Dst,
		Count: req.Count, Size: req.Size,
		Interval: req.Interval, Timeout: req.Timeout,
		Class: req.Class,
	}
	if p.Count == 0 {
		p.Count = defaultPingCount
	}
	if p.Size == 0 {
		p.Size = defaultPingSize
	}
	if p.Interval == 0 {
		p.Interval = fabric.Duration(defaultPingInterval)
	}
	if p.Timeout == 0 {
		p.Timeout = fabric.Duration(defaultPingTimeout)
	}
	if p.Class == "" {
		p.Class = ClassBackground
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return p, nil
}

// check refuses a defaulted ping the wire would refuse. compilePing and
// applyEntry both run it, so a hand-written op-log line gets the same
// bounds as a request.
func (p *PingOp) check() error {
	switch {
	case p.Src == p.Dst:
		return fmt.Errorf("ping src and dst are both %q", p.Src)
	case p.Count < 1 || p.Count > 1000:
		return fmt.Errorf("ping count %d outside [1,1000]", p.Count)
	case p.Size < 0 || p.Size > 1400:
		return fmt.Errorf("ping size %d outside [0,1400]", p.Size)
	case p.Interval.D() <= 0 || p.Timeout.D() <= 0:
		return fmt.Errorf("ping interval and timeout must be positive")
	}
	return checkSpan("ping", p.Count-1, p.Interval.D(), p.Timeout.D())
}

// compileStream translates and defaults a stream request.
func (s *Server) compileStream(req Request) (*StreamOp, error) {
	if err := s.hostPair("stream", req.Src, req.Dst); err != nil {
		return nil, err
	}
	st := &StreamOp{Src: req.Src, Dst: req.Dst, Bytes: req.Bytes}
	if st.Bytes == 0 {
		st.Bytes = defaultStreamBytes
	}
	if err := st.check(); err != nil {
		return nil, err
	}
	return st, nil
}

// check refuses a defaulted stream the wire would refuse (see
// PingOp.check).
func (st *StreamOp) check() error {
	switch {
	case st.Src == st.Dst:
		return fmt.Errorf("stream src and dst are both %q", st.Src)
	case st.Bytes < 1 || st.Bytes > 64<<20:
		return fmt.Errorf("stream bytes %d outside [1,64MiB]", st.Bytes)
	}
	return nil
}

// compileFault translates a fault-family request into scenario ops. One
// request may expand to several ops (a flap is down+up, a partition is a
// whole cut); the expansion — not the request — is what the op-log
// stores, so replay never re-derives a cut or a port assignment.
func (s *Server) compileFault(req Request) ([]scenario.FaultOp, error) {
	link := func() (int, error) {
		if req.Link == "" {
			return 0, fmt.Errorf("%s requires a link name", req.Op)
		}
		li, ok := s.index.LinkIndex(req.Link)
		if !ok {
			return 0, fmt.Errorf("unknown link %q", req.Link)
		}
		return li, nil
	}
	hostIx := func(name, what string) (int, error) {
		if name == "" {
			return 0, fmt.Errorf("%s requires %s", req.Op, what)
		}
		hi, ok := s.index.HostIndex(name)
		if !ok {
			return 0, fmt.Errorf("unknown host %q", name)
		}
		return hi, nil
	}
	burst := func(src, dst int, count int, interval, payload int) scenario.FaultOp {
		if count == 0 {
			count = defaultBurstCount
		}
		if interval == 0 {
			interval = int(defaultBurstSpacing)
		}
		if payload == 0 {
			payload = defaultBurstPayload
		}
		return scenario.FaultOp{
			Kind: scenario.OpBurst, Src: src, Dst: dst, Port: burstPort,
			Count: count, Interval: time.Duration(interval), Payload: payload,
		}
	}

	var ops []scenario.FaultOp
	switch req.Op {
	case "link-down", "link-up":
		li, err := link()
		if err != nil {
			return nil, err
		}
		kind := scenario.OpLinkDown
		if req.Op == "link-up" {
			kind = scenario.OpLinkUp
		}
		ops = []scenario.FaultOp{{Kind: kind, Link: li}}
	case "flap":
		li, err := link()
		if err != nil {
			return nil, err
		}
		d := req.For.D()
		if d == 0 {
			d = defaultFlapFor
		}
		ops = []scenario.FaultOp{
			{Kind: scenario.OpLinkDown, Link: li},
			{At: d, Kind: scenario.OpLinkUp, Link: li},
		}
	case "set-loss":
		li, err := link()
		if err != nil {
			return nil, err
		}
		ops = []scenario.FaultOp{{Kind: scenario.OpSetLoss, Link: li, Side: req.Side, Rate: req.Rate}}
		if d := req.For.D(); d > 0 {
			ops = append(ops, scenario.FaultOp{At: d, Kind: scenario.OpClearLoss, Link: li, Side: req.Side})
		}
	case "clear-loss":
		li, err := link()
		if err != nil {
			return nil, err
		}
		ops = []scenario.FaultOp{{Kind: scenario.OpClearLoss, Link: li, Side: req.Side}}
	case "bridge-restart":
		if req.Bridge == "" {
			return nil, fmt.Errorf("bridge-restart requires a bridge name")
		}
		bi, ok := s.index.BridgeIndex(req.Bridge)
		if !ok {
			return nil, fmt.Errorf("unknown bridge %q", req.Bridge)
		}
		ops = []scenario.FaultOp{{Kind: scenario.OpBridgeRestart, Bridge: bi}}
	case "host-move":
		hi, err := hostIx(req.Host, "a host name")
		if err != nil {
			return nil, err
		}
		ops = []scenario.FaultOp{{Kind: scenario.OpHostMove, Host: hi}}
		if d := req.For.D(); d > 0 {
			ops = append(ops, scenario.FaultOp{At: d, Kind: scenario.OpHostReturn, Host: hi})
		}
	case "host-return":
		hi, err := hostIx(req.Host, "a host name")
		if err != nil {
			return nil, err
		}
		ops = []scenario.FaultOp{{Kind: scenario.OpHostReturn, Host: hi}}
	case "partition":
		cut := s.index.PartitionCut(req.Seed)
		if len(cut) == 0 {
			return nil, fmt.Errorf("partition: the bridge graph yields no cut")
		}
		d := req.For.D()
		if d == 0 {
			d = defaultPartitionFor
		}
		for _, li := range cut {
			ops = append(ops,
				scenario.FaultOp{Kind: scenario.OpLinkDown, Link: li},
				scenario.FaultOp{At: d, Kind: scenario.OpLinkUp, Link: li})
		}
	case "burst":
		si, err := hostIx(req.Src, "src")
		if err != nil {
			return nil, err
		}
		di, err := hostIx(req.Dst, "dst")
		if err != nil {
			return nil, err
		}
		ops = []scenario.FaultOp{burst(si, di, req.Count, int(req.Interval.D()), req.Payload)}
	case "matrix":
		// A seeded burst matrix: Flows random host pairs, every burst with
		// the request's sizing. The expansion is logged, so the matrix a
		// replay drives is the one that ran, whatever this derivation does.
		hosts := s.index.Hosts()
		if len(hosts) < 2 {
			return nil, fmt.Errorf("matrix requires at least two hosts")
		}
		flows := req.Flows
		if flows == 0 {
			flows = defaultMatrixFlows
		}
		if flows < 1 || flows > 256 {
			return nil, fmt.Errorf("matrix flows %d outside [1,256]", flows)
		}
		rng := newSeededRand(req.Seed)
		for i := 0; i < flows; i++ {
			src := rng.Intn(len(hosts))
			dst := rng.Intn(len(hosts))
			if dst == src {
				dst = (dst + 1) % len(hosts)
			}
			ops = append(ops, burst(src, dst, req.Count, int(req.Interval.D()), req.Payload))
		}
	default:
		return nil, fmt.Errorf("unknown op %q", req.Op)
	}
	for _, op := range ops {
		if err := s.index.Validate(op); err != nil {
			return nil, err
		}
	}
	return ops, nil
}
