// Package frameown exercises the frameownership analyzer: borrowed
// *netsim.Frame parameters must not outlive the call without a
// dominating Retain, and Retain/Release must balance.
package frameown

import "netsim"

type handler struct {
	last *netsim.Frame
	buf  []*netsim.Frame
	ch   chan *netsim.Frame
}

func (h *handler) OnFrame(f *netsim.Frame) {
	h.last = f // want "without a dominating Retain"
}

func (h *handler) storeRetained(f *netsim.Frame) {
	h.buf = append(h.buf, f.Retain()) // the idiomatic chained form
}

func (h *handler) retainThenStore(f *netsim.Frame) {
	f.Retain()
	h.last = f
}

func (h *handler) releaseBorrow(f *netsim.Frame) {
	f.Release() // want "gives away the caller's reference"
}

func (h *handler) leakRetain(f *netsim.Frame) {
	f.Retain() // want "pooled buffer leaks"
}

func (h *handler) sendBorrow(f *netsim.Frame) {
	h.ch <- f // want "sent on a channel"
}

func (h *handler) sendRetained(f *netsim.Frame) {
	h.ch <- f.Retain()
}

func (h *handler) deferCapture(f *netsim.Frame) {
	defer func() { h.last = f }() // want "captured by a deferred/scheduled closure"
}

func (h *handler) inlineClosure(f *netsim.Frame) bool {
	// A closure that runs inside the borrow window is an alias, not an
	// escape.
	valid := func() bool { return f != nil }
	return valid()
}

func (h *handler) localAlias(f *netsim.Frame) *netsim.Frame {
	g := f // locals are aliases within the borrow window
	return g
}
