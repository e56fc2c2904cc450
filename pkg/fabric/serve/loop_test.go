package serve

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/pkg/fabric"

	"repro/internal/host"
)

// mustDo applies one op through the live loop and fails on a rejection.
func mustDo(t testing.TB, s *Server, req Request) Response {
	t.Helper()
	resp := s.do(req)
	if resp.Error != "" {
		t.Fatalf("%s: %s", req.Op, resp.Error)
	}
	return resp
}

// boundPorts counts the ports of 1..65535 that bind refuses — the host
// API's own answer to "is this port taken" is a panic, so the probe binds
// and releases every free port and counts the ones that panic.
func boundPorts(bind func(port uint16)) (bound int) {
	for p := 1; p <= 0xffff; p++ {
		func() {
			defer func() {
				if recover() != nil {
					bound++
				}
			}()
			bind(uint16(p))
		}()
	}
	return bound
}

// TestServeBurstStreamLifecycle is the port-lifecycle regression: 70 000
// one-datagram bursts and 70 000 one-byte streams between one host pair —
// past any 16-bit port counter — complete without a panic, and leave
// behind state bounded by the host count: one burst sink, no source
// socket, no listener, no pending flow, no leaked frame. Before the fix
// every burst kept two sockets and a sink and every stream a listener,
// and the 65 537th of either panicked on a port still bound.
func TestServeBurstStreamLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("140 000 ops")
	}
	srv, err := New(Options{Quantum: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 70000
	for i := 0; i < n; i++ {
		mustDo(t, srv, Request{Op: "burst", Src: "A", Dst: "B", Count: 1})
		mustDo(t, srv, Request{Op: "stream", Src: "A", Dst: "B", Bytes: 1})
	}
	mustDo(t, srv, Request{Op: "drain"})
	st := mustDo(t, srv, Request{Op: "stats"}).Stats
	if st.LiveFrames != 0 || st.FlowsActive != 0 {
		t.Fatalf("after drain: live_frames=%d flows_active=%d, want 0 and 0", st.LiveFrames, st.FlowsActive)
	}
	if st.BurstOffered != n || st.BurstDelivered != n {
		t.Fatalf("bursts offered=%d delivered=%d, want %d of each", st.BurstOffered, st.BurstDelivered, n)
	}
	srv.Shutdown()
	rep := srv.Wait()
	if rep.LeakedFrames != 0 {
		t.Fatalf("session leaked %d frames", rep.LeakedFrames)
	}
	if rep.StreamsDone != n || rep.StreamsOK != n {
		t.Fatalf("streams done=%d complete=%d, want %d of each", rep.StreamsDone, rep.StreamsOK, n)
	}
	// The loop has exited: its state and the hosts are safe to read.
	if len(srv.sinks) != 1 || len(srv.pending) != 0 || len(srv.flows) > maxFlows {
		t.Fatalf("server state grew with the ops served: sinks=%d pending=%d flows=%d",
			len(srv.sinks), len(srv.pending), len(srv.flows))
	}
	for name, wantUDP := range map[string]int{"A": 0, "B": 1} { // B keeps its burst sink
		h := srv.built.Hosts[name]
		if got := boundPorts(func(p uint16) { h.UDP(p, nil).Close() }); got != wantUDP {
			t.Errorf("host %s: %d UDP ports still bound, want %d", name, got, wantUDP)
		}
		if got := boundPorts(func(p uint16) { h.Listen(p, func(*host.Conn) {}).Close() }); got != 0 {
			t.Errorf("host %s: %d TCP ports still listening, want 0", name, got)
		}
	}
}

// idleServer returns an unstarted server with n completed ping flows
// behind it (all folded, the oldest beyond maxFlows dropped) and one far
// timer pending, so the fabric is never quiescent and every advance is an
// empty quantum.
func idleServer(t testing.TB, n int) *Server {
	t.Helper()
	s, err := newServer(Options{Quantum: time.Millisecond})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ping := &PingOp{Src: "A", Dst: "B", Count: 1, Size: 56,
		Interval: fabric.Duration(time.Millisecond), Timeout: fabric.Duration(time.Second), Class: ClassPriority}
	for i := 0; i < n; i++ {
		if err := s.applyEntry(&logEntry{Ping: ping}); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		s.built.Run()
		s.boundary()
	}
	if len(s.pending) != 0 || len(s.flows) != maxFlows || s.flowsDropped != n-maxFlows {
		t.Fatalf("setup: pending=%d flows=%d dropped=%d", len(s.pending), len(s.flows), s.flowsDropped)
	}
	s.built.Engine.At(s.built.Now()+1000*time.Hour, func() {})
	return s
}

// TestIdleQuantumSkipsFoldedFlows: with 600 completed flows behind it an
// empty quantum does not visit the resident ones — every retained flow is
// swapped for a nil pointer, so a loop iteration that looked at any of
// them would fault.
func TestIdleQuantumSkipsFoldedFlows(t *testing.T) {
	s := idleServer(t, 600)
	resident := append([]*flow(nil), s.flows...)
	clear(s.flows)
	at := s.built.Now()
	for i := 0; i < 100; i++ {
		s.advance()
	}
	copy(s.flows, resident)
	if got := s.built.Now() - at; got != 100*time.Millisecond {
		t.Fatalf("100 empty quanta advanced virtual time by %v, want 100ms", got)
	}
	if st := s.stats(); st.FlowsActive != 0 || st.Classes[ClassPriority].Count != 600 {
		t.Fatalf("flows_active=%d priority probes=%d, want 0 and 600", st.FlowsActive, st.Classes[ClassPriority].Count)
	}
	s.finish()
}

// BenchmarkIdleQuantum reports what one empty loop iteration costs with
// 600 completed flows resident: a RunFor that finds nothing due, and a
// boundary with nothing to fold and nothing to forget.
func BenchmarkIdleQuantum(b *testing.B) {
	s := idleServer(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.advance()
	}
	b.StopTimer()
	s.finish()
}

// TestServeReplayAcrossOriginationDrops drives the one frame identity the
// fabric reissues through the live = replay invariant. With A's link down,
// everything A sends drops at origination as identity 0; the live loop
// forgets at drained quanta between those drops, the replay only at op
// entries, and both must number identity 0 alike. The stream from A that
// nobody answers must give B's port back once it has aborted — at the
// fold, since its abort runs on A, possibly in another shard than B.
func TestServeReplayAcrossOriginationDrops(t *testing.T) {
	var opLog bytes.Buffer
	srv, err := New(Options{Spec: fabric.Spec{Shards: 2}, Quantum: time.Millisecond, OpLog: &opLog})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	settle := func() { // lets the loop run quantum by quantum, unlike drain
		t.Helper()
		for mustDo(t, srv, Request{Op: "stats"}).Stats.FlowsActive > 0 {
			runtime.Gosched()
		}
	}
	ping := Request{Op: "ping", Src: "A", Dst: "B", Count: 3,
		Interval: fabric.Duration(5 * time.Millisecond), Timeout: fabric.Duration(20 * time.Millisecond)}
	mustDo(t, srv, ping)
	settle()
	mustDo(t, srv, Request{Op: "link-down", Link: "A-NIC1"})
	mustDo(t, srv, ping)
	settle()
	mustDo(t, srv, Request{Op: "stream", Src: "B", Dst: "A", Bytes: 1000}) // B serves, A dials into the dead link
	settle()
	mustDo(t, srv, Request{Op: "link-up", Link: "A-NIC1"})
	mustDo(t, srv, ping)
	mustDo(t, srv, Request{Op: "stream", Src: "B", Dst: "A", Bytes: 1000})
	settle()
	srv.Shutdown()
	live := srv.Wait()
	if live.LeakedFrames != 0 || live.StreamsDone != 2 || live.StreamsOK != 1 {
		t.Fatalf("live: leaked=%d streams done=%d complete=%d, want 0, 2 and 1", live.LeakedFrames, live.StreamsDone, live.StreamsOK)
	}
	b := srv.built.Hosts["B"]
	if got := boundPorts(func(p uint16) { b.Listen(p, func(*host.Conn) {}).Close() }); got != 0 {
		t.Errorf("host B: %d TCP ports still listening, want 0", got)
	}
	for _, shards := range []int{1, 2, 4} {
		rep, err := Replay(bytes.NewReader(opLog.Bytes()), shards, io.Discard)
		if err != nil {
			t.Fatalf("replay shards=%d: %v", shards, err)
		}
		if rep.Fingerprint != live.Fingerprint || rep.Events != live.Events || rep.Text != live.Text {
			t.Fatalf("replay shards=%d: %#016x over %d events, live %#016x over %d\n--- live ---\n%s--- replay ---\n%s",
				shards, rep.Fingerprint, rep.Events, live.Fingerprint, live.Events, live.Text, rep.Text)
		}
	}
}
