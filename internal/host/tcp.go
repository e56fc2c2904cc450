package host

import (
	"fmt"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
)

// TCP-lite: the reliable byte-stream transport the Figure 3 demo streams
// "HTTP video" over. It keeps TCP's essential machinery — three-way
// handshake, byte sequence numbers, cumulative ACKs, go-back-N
// retransmission with an adaptive RTO, fast retransmit on triplicate ACKs,
// and Reno-style congestion control — and drops everything the experiment
// does not exercise (SACK, urgent data, window scaling, TIME_WAIT). See
// DESIGN.md's substitution table.

// The transport's settings suit the simulated gigabit fabric: RTTs are
// tens of microseconds, but repair outages last milliseconds, so the RTO
// floor stays low enough to probe during recovery without melting the
// fabric.
const (
	// mss is the maximum segment payload size.
	mss = 1400
	// rcvWindow is the advertised receive window in bytes (fixed; the
	// receiver consumes immediately so it never shrinks).
	rcvWindow = 256 << 10
	// minRTO and maxRTO clamp the adaptive retransmission timeout.
	minRTO, maxRTO = 10 * time.Millisecond, 2 * time.Second
	// initialRTO is used before any RTT sample exists.
	initialRTO = 50 * time.Millisecond
	// maxRetries aborts the connection after this many consecutive
	// unanswered retransmissions of the same data.
	maxRetries = 30
	// idleTimeout aborts an established connection that has received no
	// segments at all for this long — the stand-in for TCP keepalive, so
	// a pure receiver notices a dead peer (a partitioned video client,
	// say) instead of waiting forever.
	idleTimeout = 2 * time.Minute
)

// ConnState is a TCP-lite connection state.
type ConnState uint8

// Connection states.
const (
	StateClosed ConnState = iota
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait   // we sent FIN, awaiting its ACK
	StateCloseWait // peer sent FIN; we may still send
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateCloseWait:
		return "close-wait"
	default:
		return "state(?)"
	}
}

// ConnStats counts the bytes one connection carried.
type ConnStats struct {
	BytesSent     uint64 // application bytes accepted for sending
	BytesAcked    uint64
	BytesReceived uint64 // in-order application bytes delivered
}

type connKey struct {
	rip   layers.Addr4
	rport uint16
	lport uint16
}

// Conn is one TCP-lite connection endpoint. All callbacks run on the
// simulation goroutine.
type Conn struct {
	h   *Host
	key connKey

	state ConnState

	// Send side (byte sequence space).
	sndBuf  []byte // unacked + unsent bytes, sndUna is sndBuf[0]
	sndUna  uint32
	sndNxt  uint32
	sndFin  bool // FIN queued after the buffer drains
	finSeq  uint32
	peerWnd int

	// Receive side.
	rcvNxt  uint32
	peerFin bool

	// Congestion control (Reno, byte-based).
	cwnd     int
	ssthresh int
	dupAcks  int
	// recover is the highest sequence outstanding when loss was last
	// detected; until sndUna passes it, every partial ACK immediately
	// retransmits the segment at the new hole (NewReno §3.2). Without
	// this, a burst loss degenerates to one segment per RTO.
	recover uint32

	// RTO machinery.
	srtt, rttvar time.Duration
	rto          time.Duration
	rtxTimer     *sim.Timer
	idleTimer    *sim.Timer
	retries      int
	// One RTT sample at a time (Karn's algorithm: never sample
	// retransmitted data).
	rttSeq   uint32
	rttStart time.Duration
	rttValid bool

	// Application callbacks.
	OnData    func([]byte) // in-order payload delivery
	OnClose   func()       // peer finished sending (EOF after data)
	OnAbort   func()       // connection reset / gave up
	onConnect func(*Conn)  // dial success

	stats ConnStats
}

// Listener accepts TCP-lite connections on a port.
type Listener struct {
	h      *Host
	port   uint16
	accept func(*Conn)
}

// tcpHost is the per-host transport demultiplexer. Its maps are nil until
// the first Listen and the first connection.
type tcpHost struct {
	h         *Host
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16 // the next ephemeral port to try, for dials and Listen(0) alike
}

// ephemeral walks the host's one port counter through [49152, 65535] to
// the next port taken does not hold and returns it, or 0 once all 16384
// are held.
func (th *tcpHost) ephemeral(taken func(port uint16) bool) uint16 {
	for range 1 << 14 {
		p := th.nextPort
		th.nextPort = (p + 1) | 0xC000
		if !taken(p) {
			return p
		}
	}
	return 0
}

// Listen registers accept for incoming connections on port. Port 0 asks
// for any free ephemeral port (Port reads it back) and returns nil when
// none is left; listening on a named port that is taken panics.
func (h *Host) Listen(port uint16, accept func(*Conn)) *Listener {
	th := &h.tcp
	listening := func(p uint16) bool { return th.listeners[p] != nil }
	if port == 0 {
		if port = th.ephemeral(listening); port == 0 {
			return nil
		}
	} else if listening(port) {
		panic(fmt.Sprintf("host %s: TCP port %d already listening", h.name, port))
	}
	l := &Listener{h: h, port: port, accept: accept}
	put(&th.listeners, port, l)
	return l
}

// Port returns the port the listener accepts on.
func (l *Listener) Port() uint16 { return l.port }

// Close stops accepting new connections; connections already accepted
// live on. Closing twice is harmless, also once the port has been taken
// by a later listener.
func (l *Listener) Close() {
	if th := &l.h.tcp; th.listeners[l.port] == l {
		delete(th.listeners, l.port)
	}
}

// Dial opens a connection to dst:port from an ephemeral local port no live
// connection to dst:port uses; onConnect fires when the handshake
// completes. It returns nil when no port is free.
func (h *Host) Dial(dst layers.Addr4, port uint16, onConnect func(*Conn)) *Conn {
	th := &h.tcp
	lport := th.ephemeral(func(p uint16) bool {
		return th.conns[connKey{rip: dst, rport: port, lport: p}] != nil
	})
	if lport == 0 {
		return nil
	}
	c := newConn(h, connKey{rip: dst, rport: port, lport: lport})
	c.onConnect = onConnect
	put(&th.conns, c.key, c)
	c.state = StateSynSent
	c.sndNxt = c.sndUna + 1 // SYN consumes one sequence number
	c.sendFlags(layers.TCPFlagSYN, c.sndUna, 0, nil)
	c.armRTX()
	return c
}

func newConn(h *Host, key connKey) *Conn {
	isn := uint32(h.rng.Rand().Int63()) // deterministic per seed
	return &Conn{
		h:        h,
		key:      key,
		sndUna:   isn,
		sndNxt:   isn,
		recover:  isn,
		peerWnd:  rcvWindow,
		cwnd:     2 * mss,
		ssthresh: rcvWindow,
		rto:      initialRTO,
	}
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// Write queues application bytes for transmission.
func (c *Conn) Write(p []byte) {
	if c.state == StateClosed || c.sndFin {
		panic("host: Write on closed/closing TCP-lite connection")
	}
	c.stats.BytesSent += uint64(len(p))
	c.sndBuf = append(c.sndBuf, p...)
	c.pump()
}

// Close queues a FIN after any buffered data; the peer sees EOF once
// everything is delivered.
func (c *Conn) Close() {
	if c.sndFin || c.state == StateClosed {
		return
	}
	c.sndFin = true
	c.pump()
}

// abort tears the connection down and notifies the application.
func (c *Conn) abort() {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	if c.rtxTimer != nil {
		c.rtxTimer.Stop()
	}
	if c.idleTimer != nil {
		c.idleTimer.Stop()
	}
	delete(c.h.tcp.conns, c.key)
	if c.OnAbort != nil {
		c.OnAbort()
	}
}

// flightSize returns the bytes in flight.
func (c *Conn) flightSize() int { return int(c.sndNxt - c.sndUna) }

// window returns the current usable send window.
func (c *Conn) window() int {
	w := c.cwnd
	if c.peerWnd < w {
		w = c.peerWnd
	}
	return w
}

// pump transmits as much buffered data as the window allows.
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateCloseWait && c.state != StateFinWait {
		return
	}
	for {
		inFlight := c.flightSize()
		// Sequence offset of the next unsent byte within sndBuf.
		unsent := len(c.sndBuf) - inFlightData(inFlight, c)
		if unsent <= 0 {
			break
		}
		avail := c.window() - inFlight
		if avail <= 0 {
			break
		}
		n := unsent
		if n > mss {
			n = mss
		}
		if n > avail {
			n = avail
		}
		start := len(c.sndBuf) - unsent
		seg := c.sndBuf[start : start+n]
		c.sendFlags(layers.TCPFlagACK|layers.TCPFlagPSH, c.sndNxt, c.rcvNxt, seg)
		if !c.rttValid {
			c.rttValid = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttStart = c.h.now()
		}
		c.sndNxt += uint32(n)
		c.armRTX()
	}
	// Send FIN once the buffer is fully in flight or acked.
	if c.sndFin && c.state != StateFinWait && c.flightSize() == len(c.sndBuf) {
		c.finSeq = c.sndNxt
		c.sndNxt++
		if c.state == StateEstablished || c.state == StateCloseWait {
			c.state = StateFinWait
		}
		c.sendFlags(layers.TCPFlagFIN|layers.TCPFlagACK, c.finSeq, c.rcvNxt, nil)
		c.armRTX()
	}
}

// inFlightData converts the in-flight sequence span to in-flight *data*
// bytes, excluding a FIN that may occupy one sequence number.
func inFlightData(inFlight int, c *Conn) int {
	if c.state == StateFinWait && inFlight > 0 {
		return inFlight - 1
	}
	return inFlight
}

// sendFlags emits one segment.
func (c *Conn) sendFlags(flags uint8, seq, ack uint32, payload []byte) {
	ls := []layers.SerializableLayer{
		&layers.TCPLite{
			SrcPort: c.key.lport, DstPort: c.key.rport,
			Seq: seq, Ack: ack, Flags: flags,
			Window: uint16(min(rcvWindow, 0xFFFF)),
			SrcIP:  c.h.ip, DstIP: c.key.rip,
		},
	}
	if len(payload) > 0 {
		ls = append(ls, layers.Payload(payload))
	}
	c.h.sendIP(c.key.rip, layers.IPProtoTCPLite, ls...)
}

// armRTX (re)starts the retransmission timer if data is outstanding.
func (c *Conn) armRTX() {
	if c.rtxTimer != nil {
		c.rtxTimer.Stop()
		c.rtxTimer = nil
	}
	if c.flightSize() == 0 && c.state != StateSynSent && c.state != StateSynReceived {
		return
	}
	c.rtxTimer = c.h.After(c.rto, c.onRTO)
}

// onRTO fires when the oldest outstanding data went unacknowledged.
func (c *Conn) onRTO() {
	c.retries++
	if c.retries > maxRetries {
		c.abort()
		return
	}
	// Reno: multiplicative backoff, collapse to one segment.
	c.ssthresh = max(c.flightSize()/2, 2*mss)
	c.cwnd = mss
	c.dupAcks = 0
	c.recover = c.sndNxt
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.rttValid = false // Karn: no samples across retransmission
	c.retransmit()
	c.armRTX()
}

// retransmit resends from sndUna (go-back-N restart: one segment; the ACK
// clock recovers the rest).
func (c *Conn) retransmit() {
	switch c.state {
	case StateSynSent:
		c.sendFlags(layers.TCPFlagSYN, c.sndUna, 0, nil)
		return
	case StateSynReceived:
		c.sendFlags(layers.TCPFlagSYN|layers.TCPFlagACK, c.sndUna, c.rcvNxt, nil)
		return
	case StateClosed:
		return
	}
	if c.state == StateFinWait && c.sndUna == c.finSeq {
		c.sendFlags(layers.TCPFlagFIN|layers.TCPFlagACK, c.finSeq, c.rcvNxt, nil)
		return
	}
	n := len(c.sndBuf)
	if n > mss {
		n = mss
	}
	if n == 0 {
		return
	}
	c.sendFlags(layers.TCPFlagACK|layers.TCPFlagPSH, c.sndUna, c.rcvNxt, c.sndBuf[:n])
}

// handle processes a received TCP-lite packet for this host.
func (t *tcpHost) handle(ip *layers.IPv4) {
	var seg layers.TCPLite
	if seg.DecodeFromBytes(ip.Payload()) != nil {
		return
	}
	if seg.VerifyChecksum(ip.Src, ip.Dst) != nil {
		return
	}
	key := connKey{rip: ip.Src, rport: seg.SrcPort, lport: seg.DstPort}
	if c, ok := t.conns[key]; ok {
		c.handleSegment(&seg)
		return
	}
	// New connection?
	if seg.HasFlag(layers.TCPFlagSYN) && !seg.HasFlag(layers.TCPFlagACK) {
		l, ok := t.listeners[seg.DstPort]
		if !ok {
			return // silently ignore (no RST machinery needed)
		}
		c := newConn(t.h, key)
		put(&t.conns, key, c)
		c.state = StateSynReceived
		c.rcvNxt = seg.Seq + 1
		c.sndNxt = c.sndUna + 1
		c.onConnect = l.accept
		c.sendFlags(layers.TCPFlagSYN|layers.TCPFlagACK, c.sndUna, c.rcvNxt, nil)
		c.armRTX()
	}
}

// armIdle (re)starts the keepalive-substitute idle timer.
func (c *Conn) armIdle() {
	if c.idleTimer != nil {
		c.idleTimer.Stop()
	}
	c.idleTimer = c.h.After(idleTimeout, c.abort)
}

// handleSegment is the connection state machine.
func (c *Conn) handleSegment(seg *layers.TCPLite) {
	if c.state != StateClosed {
		c.armIdle()
	}
	switch c.state {
	case StateSynSent:
		if seg.HasFlag(layers.TCPFlagSYN|layers.TCPFlagACK) && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.retries = 0
			c.state = StateEstablished
			c.sendFlags(layers.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
			c.armRTX()
			if c.onConnect != nil {
				c.onConnect(c)
			}
		}
		return
	case StateSynReceived:
		if seg.HasFlag(layers.TCPFlagACK) && seg.Ack == c.sndNxt {
			c.sndUna = seg.Ack
			c.retries = 0
			c.state = StateEstablished
			c.armRTX()
			if c.onConnect != nil {
				c.onConnect(c)
			}
			// Fall through: the ACK may carry data.
		} else if seg.HasFlag(layers.TCPFlagSYN) && !seg.HasFlag(layers.TCPFlagACK) {
			// Duplicate SYN: re-answer.
			c.sendFlags(layers.TCPFlagSYN|layers.TCPFlagACK, c.sndUna, c.rcvNxt, nil)
			return
		} else {
			return
		}
	case StateClosed:
		return
	}

	if seg.HasFlag(layers.TCPFlagRST) {
		c.abort()
		return
	}

	// ACK processing.
	if seg.HasFlag(layers.TCPFlagACK) {
		c.processAck(seg)
	}

	// In-order payload delivery (go-back-N: anything else is dropped and
	// re-acked so the sender retransmits from the gap).
	payload := seg.Payload()
	if len(payload) > 0 {
		if seg.Seq == c.rcvNxt {
			c.rcvNxt += uint32(len(payload))
			c.stats.BytesReceived += uint64(len(payload))
			if c.OnData != nil {
				c.OnData(payload)
			}
		}
		// Acknowledge cumulatively either way.
		c.sendFlags(layers.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
	} else if seg.HasFlag(layers.TCPFlagSYN) || int32(seg.Seq-c.rcvNxt) < 0 {
		// A re-sent SYN|ACK or an old segment elicits an empty ACK (RFC
		// 9293 §3.10.7.4): the peer may have lost our last one.
		c.sendFlags(layers.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
	}

	// Peer FIN, only honoured in order.
	if seg.HasFlag(layers.TCPFlagFIN) && seg.Seq+uint32(len(payload)) == c.rcvNxt && !c.peerFin {
		c.peerFin = true
		c.rcvNxt++
		c.sendFlags(layers.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
		if c.state == StateEstablished {
			c.state = StateCloseWait
		}
		if c.OnClose != nil {
			c.OnClose()
		}
		c.maybeFinish()
		return
	}
	c.maybeFinish()
}

// processAck advances the send window and drives Reno.
func (c *Conn) processAck(seg *layers.TCPLite) {
	ack := seg.Ack
	acked := int32(ack - c.sndUna)
	switch {
	case acked > 0:
		// New data acknowledged.
		dataAcked := acked
		if c.state == StateFinWait && ack == c.sndNxt && c.sndFin {
			dataAcked-- // the FIN's sequence slot
		}
		if int(dataAcked) > len(c.sndBuf) {
			dataAcked = int32(len(c.sndBuf))
		}
		c.sndBuf = c.sndBuf[dataAcked:]
		c.sndUna = ack
		c.stats.BytesAcked += uint64(dataAcked)
		c.retries = 0
		c.dupAcks = 0
		// RTT sample (Karn-safe).
		if c.rttValid && int32(ack-c.rttSeq) >= 0 {
			c.rttValid = false
			c.updateRTT(c.h.now() - c.rttStart)
		}
		// Reno growth.
		if c.cwnd < c.ssthresh {
			c.cwnd += mss // slow start
		} else {
			c.cwnd += max(mss*mss/c.cwnd, 1) // AIMD
		}
		// NewReno partial ACK: while recovering from a burst loss, the
		// cumulative ACK exposes the next hole at sndUna — refill it now
		// rather than waiting out an RTO per segment.
		if int32(c.recover-c.sndUna) > 0 && c.flightSize() > 0 {
			c.retransmit()
		}
		c.armRTX()
		c.pump()
	case acked == 0 && c.flightSize() > 0 && len(seg.Payload()) == 0:
		// Duplicate ACK.
		c.dupAcks++
		if c.dupAcks == 3 {
			c.ssthresh = max(c.flightSize()/2, 2*mss)
			c.cwnd = c.ssthresh
			c.recover = c.sndNxt
			c.retransmit()
			c.armRTX()
		}
	}
}

// updateRTT runs Jacobson/Karels estimation.
func (c *Conn) updateRTT(sample time.Duration) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// maybeFinish closes the connection once both directions are done.
func (c *Conn) maybeFinish() {
	finAcked := !c.sndFin || (c.state == StateFinWait && c.sndUna == c.sndNxt)
	if c.peerFin && c.sndFin && finAcked {
		c.state = StateClosed
		if c.rtxTimer != nil {
			c.rtxTimer.Stop()
		}
		if c.idleTimer != nil {
			c.idleTimer.Stop()
		}
		delete(c.h.tcp.conns, c.key)
	}
}
