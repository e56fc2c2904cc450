package core

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// startRepair handles a unicast table miss for the frame's destination
// (§2.1.4): buffer the frame, then emulate an ARP exchange — tell src's
// edge bridge to flood a PathRequest (via PathFail), or flood it
// ourselves if we cannot reach src. It reports whether a new repair was
// actually created (false when one was already pending for dst, or when
// repair is disabled entirely).
func (b *Bridge) startRepair(f *netsim.Frame, v *layers.FrameView, now time.Duration) bool {
	if b.cfg.DisableRepair {
		b.stats.RepairDropped++
		return false
	}
	// Park first: the nonce is drawn and the timeout armed before any
	// control frame leaves (bridge.Repairs has the ordering contract).
	nonce, fresh := b.repairs.Park(v.DstKey, f)
	if !fresh {
		return false
	}
	b.stats.RepairsStarted++
	// Kick off the control exchange. On a transit bridge the frame arrived
	// on the very port that leads back to src, so the PathFail goes out
	// the ingress side; only src's edge bridge converts the failure into
	// the PathRequest flood.
	if e, ok := b.table.GetKey(v.SrcKey, now); ok && !b.IsEdge(e.Port) {
		// Report the failure toward src's edge bridge, tearing down stale
		// dst entries en route.
		b.sendPathFail(e.Port, v.Src, v.Dst, nonce)
	} else {
		// src hangs off this bridge, or there is no route toward src at
		// all: emulate its ARP Request from here.
		b.originatePathRequest(v.Src, v.Dst, nonce)
	}
	return true
}

// completeRepair releases frames buffered for the packed destination dst
// now that a confirming reply has arrived via port out.
func (b *Bridge) completeRepair(dst uint64, out *netsim.Port) {
	n := uint64(b.repairs.Release(dst, out))
	b.stats.RepairReleased += n
	b.stats.Forwarded += n
}

// sendPathFail emits a PathFail toward src out the given port.
func (b *Bridge) sendPathFail(out *netsim.Port, src, dst layers.MAC, nonce uint32) {
	b.stats.PathFailsSent++
	out.Send(b.CtlFrame(src, b.MAC(), layers.PathCtl{Type: layers.PathCtlFail, Src: src, Dst: dst, Nonce: nonce}))
}

// handlePathFail processes a PathFail addressed toward Src: clear the
// stale Dst entry, then either relay the failure toward Src or — if Src
// hangs off one of our edge ports — convert it into a PathRequest flood.
func (b *Bridge) handlePathFail(in *netsim.Port, f *netsim.Frame, v *layers.FrameView, now time.Duration) {
	if !v.HasCtl || v.Ctl.Type != layers.PathCtlFail {
		return
	}
	ctl := &v.Ctl
	// Tear down the stale path toward the unreachable destination.
	b.table.Delete(ctl.Dst)

	e, ok := b.table.Get(ctl.Src, now)
	switch {
	case ok && b.IsEdge(e.Port):
		// We are Src's edge bridge: emulate Src's ARP Request (§2.1.4).
		b.originatePathRequest(ctl.Src, ctl.Dst, ctl.Nonce)
	case ok && e.Port != in:
		// Keep walking toward Src.
		b.stats.PathFailsRelayed++
		e.Port.SendFrame(f)
	default:
		// Cannot make progress toward Src (entry missing or it points back
		// where the failure came from): flood the request from here.
		b.originatePathRequest(ctl.Src, ctl.Dst, ctl.Nonce)
	}
}

// originatePathRequest floods a PathRequest that the whole fabric treats
// exactly like an ARP Request broadcast from src: every bridge re-locks
// src's position, rebuilding the minimum-latency reverse path.
func (b *Bridge) originatePathRequest(src, dst layers.MAC, nonce uint32) {
	// The frame is sourced from src's own MAC so the locking race works
	// unchanged; hosts never see it (bridges consume PathCtl).
	frame := b.CtlFrame(layers.BroadcastMAC, src, layers.PathCtl{Type: layers.PathCtlRequest, Src: src, Dst: dst, Nonce: nonce})
	b.stats.PathRequestsSent++
	now := b.Now()
	// Re-arm the race window on src's current binding before flooding.
	// Without the guard, a copy of this very flood can loop back here over
	// a parallel link and steal the lock — which once corrupted a pair of
	// bridges into a permanent unicast ping-pong (see
	// TestRandomFailureSchedulesStayConnected). Guard (not Lock): the
	// entry must survive an unanswered repair, or the edge bridge would
	// forget its own attached host.
	var except *netsim.Port
	if e, ok := b.table.Get(src, now); ok {
		b.table.Guard(src, now)
		except = e.Port
	}
	b.stats.BroadcastRelayed++
	b.FloodBytesExcept(except, frame)
}

// answerPathRequest replies to a PathRequest when the requested
// destination hangs off one of this bridge's edge ports, completing the
// emulated ARP exchange on the host's behalf. Reports whether the request
// was consumed.
func (b *Bridge) answerPathRequest(in *netsim.Port, v *layers.FrameView, now time.Duration) bool {
	if v.Ctl.Type != layers.PathCtlRequest {
		return false
	}
	ctl := &v.Ctl
	e, ok := b.table.Get(ctl.Dst, now)
	if !ok || !b.IsEdge(e.Port) || e.Port == in {
		return false
	}
	// The request just locked Src to the ingress port; reply along it in
	// Dst's name, which confirms Dst's path at every bridge on the way.
	b.stats.PathRepliesSent++
	in.Send(b.CtlFrame(ctl.Src, ctl.Dst, layers.PathCtl{Type: layers.PathCtlReply, Src: ctl.Src, Dst: ctl.Dst, Nonce: ctl.Nonce}))
	// Also release any frames we were buffering for Dst ourselves.
	b.completeRepair(ctl.Dst.Uint64(), e.Port)
	return true
}
