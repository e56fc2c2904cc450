// Package trace captures frames crossing the simulated network for
// debugging and for the demo binaries' -trace flag: a bounded ring of
// decoded one-line summaries, with optional filters.
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// Record is one captured frame event.
type Record struct {
	At      time.Duration
	Kind    netsim.TapKind
	From    string
	To      string
	Summary string
	Len     int
}

// String renders the record as a tcpdump-style line.
func (r Record) String() string {
	return fmt.Sprintf("%12v %-10s %s > %s  %s (%dB)",
		r.At, r.Kind, r.From, r.To, r.Summary, r.Len)
}

// ringLimit bounds how many records a Capture retains, so a long -trace
// run streams through its writer without growing.
const ringLimit = 4096

// Capture is a bounded ring buffer of frame records attached to a network.
type Capture struct {
	records []Record
	filter  func(netsim.TapEvent) bool
	sink    io.Writer
}

// Option configures a capture.
type Option func(*Capture)

// WithFilter keeps only events the predicate accepts.
func WithFilter(f func(netsim.TapEvent) bool) Option {
	return func(c *Capture) { c.filter = f }
}

// WithWriter streams each record to w as it is captured (the -trace flag).
func WithWriter(w io.Writer) Option {
	return func(c *Capture) { c.sink = w }
}

// DeliveriesOnly keeps only TapDeliver events (one record per hop
// traversal instead of two).
func DeliveriesOnly(ev netsim.TapEvent) bool { return ev.Kind == netsim.TapDeliver }

// Attach registers a capture on net and returns it.
func Attach(net *netsim.Network, opts ...Option) *Capture {
	c := &Capture{}
	for _, o := range opts {
		o(c)
	}
	net.Tap(c.observe)
	return c
}

func (c *Capture) observe(ev netsim.TapEvent) {
	if c.filter != nil && !c.filter(ev) {
		return
	}
	r := Record{
		At:      ev.At,
		Kind:    ev.Kind,
		From:    ev.From.String(),
		To:      ev.To.String(),
		Summary: layers.Summarize(ev.Frame),
		Len:     len(ev.Frame),
	}
	if c.sink != nil {
		fmt.Fprintln(c.sink, r)
	}
	if len(c.records) >= ringLimit {
		// Drop the oldest half rather than one-at-a-time shifting.
		n := copy(c.records, c.records[len(c.records)/2:])
		c.records = c.records[:n]
	}
	c.records = append(c.records, r)
}

// Records returns the retained records, oldest first.
func (c *Capture) Records() []Record { return c.records }

// Dump renders all retained records as text.
func (c *Capture) Dump() string {
	var sb strings.Builder
	for _, r := range c.records {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
