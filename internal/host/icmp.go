package host

import (
	"errors"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
)

// ErrPingTimeout is reported when an echo reply does not arrive in time.
var ErrPingTimeout = errors.New("host: ping timed out")

// PingResult is the outcome of one echo exchange.
type PingResult struct {
	Seq  uint16
	RTT  time.Duration
	Err  error
	Sent time.Duration // virtual time the request left the host
}

// icmpEndpoint implements echo request/reply for a host.
type icmpEndpoint struct {
	h       *Host
	ident   uint16
	nextSeq uint16
	// outstanding echo requests by sequence number; nil until the first
	// Ping.
	waiting map[uint16]*pingWait
}

type pingWait struct {
	sent  time.Duration
	timer *sim.Timer
	cb    func(PingResult)
}

// Ping sends one echo request of the given payload size to dst and calls
// cb with the outcome. The callback runs on the simulation goroutine.
func (h *Host) Ping(dst layers.Addr4, size int, timeout time.Duration, cb func(PingResult)) {
	if size < 0 {
		size = 0
	}
	e := &h.icmp
	seq := e.nextSeq
	e.nextSeq++
	w := &pingWait{sent: h.now(), cb: cb}
	put(&e.waiting, seq, w)
	w.timer = h.After(timeout, func() {
		delete(e.waiting, seq)
		cb(PingResult{Seq: seq, Err: ErrPingTimeout, Sent: w.sent})
	})
	h.sendIP(dst, layers.IPProtoICMP,
		&layers.ICMPEcho{Type: layers.ICMPEchoRequest, Ident: e.ident, Seq: seq},
		layers.Payload(make([]byte, size)),
	)
}

// PingSeries sends count pings separated by interval and calls done with
// all results once the last one resolves or times out.
func (h *Host) PingSeries(dst layers.Addr4, count, size int, interval, timeout time.Duration, done func([]PingResult)) {
	results := make([]PingResult, 0, count)
	var fire func(i int)
	fire = func(i int) {
		h.Ping(dst, size, timeout, func(r PingResult) {
			results = append(results, r)
			if len(results) == count {
				done(results)
			}
		})
		if i+1 < count {
			h.After(interval, func() { fire(i + 1) })
		}
	}
	if count <= 0 {
		done(nil)
		return
	}
	fire(0)
}

// handle processes a received ICMP message.
func (e *icmpEndpoint) handle(ip *layers.IPv4) {
	var echo layers.ICMPEcho
	if echo.DecodeFromBytes(ip.Payload()) != nil {
		return
	}
	switch echo.Type {
	case layers.ICMPEchoRequest:
		e.h.stats.EchoRequestsRx++
		e.h.stats.EchoRepliesTx++
		e.h.sendIP(ip.Src, layers.IPProtoICMP,
			&layers.ICMPEcho{Type: layers.ICMPEchoReply, Ident: echo.Ident, Seq: echo.Seq},
			layers.Payload(echo.Payload()),
		)
	case layers.ICMPEchoReply:
		if echo.Ident != e.ident {
			return
		}
		w, ok := e.waiting[echo.Seq]
		if !ok {
			return // late reply after timeout
		}
		delete(e.waiting, echo.Seq)
		w.timer.Stop()
		w.cb(PingResult{Seq: echo.Seq, RTT: e.h.now() - w.sent, Sent: w.sent})
	}
}
