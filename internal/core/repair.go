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
	if e, ok := b.hosts.GetKey(v.SrcKey, now); ok && !b.IsEdge(e.Port) {
		// Report the failure toward src's edge bridge, tearing down stale
		// dst entries en route.
		b.sendPathFail(e.Port, v.Src, v.Dst, nonce)
	} else {
		// src hangs off this bridge, or there is no route toward src at
		// all: emulate its ARP Request from here.
		b.RequestPath(v.Src, v.Dst, nonce)
	}
	return true
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
	b.hosts.Delete(ctl.Dst)

	e, ok := b.hosts.Get(ctl.Src, now)
	switch {
	case ok && b.IsEdge(e.Port):
		// We are Src's edge bridge: emulate Src's ARP Request (§2.1.4).
		b.RequestPath(ctl.Src, ctl.Dst, ctl.Nonce)
	case ok && e.Port != in:
		// Keep walking toward Src.
		b.stats.PathFailsRelayed++
		e.Port.SendFrame(f)
	default:
		// Cannot make progress toward Src (entry missing or it points back
		// where the failure came from): flood the request from here.
		b.RequestPath(ctl.Src, ctl.Dst, ctl.Nonce)
	}
}
