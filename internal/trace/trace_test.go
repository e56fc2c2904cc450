package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
)

// build wires h1 - bridge - h2 and returns the parts.
func build(opts ...Option) (*netsim.Network, *host.Host, *host.Host, *Capture) {
	net := netsim.NewNetwork(1)
	cap := Attach(net, opts...)
	h1 := host.New(net, "h1", 1)
	h2 := host.New(net, "h2", 2)
	b := core.New(net, "b", 1, core.DefaultConfig())
	net.Connect(h1, b, netsim.DefaultLinkConfig())
	net.Connect(b, h2, netsim.DefaultLinkConfig())
	b.Start()
	net.RunFor(time.Millisecond)
	return net, h1, h2, cap
}

func TestCaptureRecordsTraffic(t *testing.T) {
	net, h1, h2, cap := build()
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) {})
	})
	net.RunFor(time.Second)
	if len(cap.Records()) == 0 {
		t.Fatal("nothing captured")
	}
	dump := cap.Dump()
	if !strings.Contains(dump, "who-has") || !strings.Contains(dump, "echo-request") {
		t.Fatalf("dump missing expected traffic:\n%s", dump)
	}
}

func TestCaptureFilter(t *testing.T) {
	net, h1, h2, cap := build(WithFilter(func(ev netsim.TapEvent) bool {
		return layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP
	}))
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) {})
	})
	net.RunFor(time.Second)
	for _, r := range cap.Records() {
		if !strings.Contains(r.Summary, "ARP") && !strings.Contains(r.Summary, "who-has") && !strings.Contains(r.Summary, "is-at") {
			t.Fatalf("non-ARP record passed filter: %s", r)
		}
	}
	if len(cap.Records()) == 0 {
		t.Fatal("filter dropped everything")
	}
}

func TestDeliveriesOnlyFilter(t *testing.T) {
	net, h1, h2, cap := build(WithFilter(DeliveriesOnly))
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) {})
	})
	net.RunFor(time.Second)
	for _, r := range cap.Records() {
		if r.Kind != netsim.TapDeliver {
			t.Fatalf("non-delivery captured: %s", r)
		}
	}
}

func TestCaptureRingBound(t *testing.T) {
	var streamed strings.Builder
	net, h1, h2, cap := build(WithWriter(&streamed))
	net.Engine.At(net.Now(), func() {
		h1.PingSeries(h2.IP(), 1000, 0, time.Millisecond, time.Second, func([]host.PingResult) {})
	})
	net.RunFor(5 * time.Second)
	lines := strings.Split(strings.TrimSuffix(streamed.String(), "\n"), "\n")
	if len(lines) <= ringLimit {
		t.Fatalf("only %d records captured: the workload no longer fills the ring", len(lines))
	}
	recs := cap.Records()
	if len(recs) > ringLimit {
		t.Fatalf("ring grew to %d records", len(recs))
	}
	// The ring sheds its oldest half; the newest record is always kept.
	if got, want := recs[len(recs)-1].String(), lines[len(lines)-1]; got != want {
		t.Fatalf("newest retained record = %q, want the last one streamed %q", got, want)
	}
}

func TestWithWriterStreams(t *testing.T) {
	var sb strings.Builder
	net, h1, h2, _ := build(WithWriter(&sb))
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) {})
	})
	net.RunFor(time.Second)
	if !strings.Contains(sb.String(), "echo-request") {
		t.Fatal("writer saw no traffic")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{At: time.Millisecond, Kind: netsim.TapDeliver, From: "a[0]", To: "b[0]", Summary: "x", Len: 60}
	s := r.String()
	if !strings.Contains(s, "deliver") || !strings.Contains(s, "a[0]") || !strings.Contains(s, "60B") {
		t.Fatalf("Record.String() = %q", s)
	}
}
