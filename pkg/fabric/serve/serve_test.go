package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/pkg/fabric"
)

// soakSpec is the live-session fixture: a seeded random mesh with spare
// jacks so every fault kind — host moves included — is in play.
func soakSpec(shards int) fabric.Spec {
	return fabric.Spec{
		Seed:     11,
		Shards:   shards,
		Topology: fabric.TopologySpec{Family: "erdos-renyi", N: 10, P: 0.3, SpareJacks: true},
	}
}

// TestServeLiveReplayFingerprint is the tentpole invariant: a live
// session driven over a real socket by the seeded soak client — priority
// pings under bursts, streams and a fault storm — logs every accepted op,
// and replaying the log reproduces the live trace fingerprint (and the
// whole session report) at shard counts 1, 2 and 4.
func TestServeLiveReplayFingerprint(t *testing.T) {
	var opLog bytes.Buffer
	srv, err := New(Options{
		Spec:    soakSpec(2),
		Quantum: 5 * time.Millisecond,
		OpLog:   &opLog,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)

	res, err := Soak(SoakConfig{
		Network:  "tcp",
		Addr:     ln.Addr().String(),
		Seed:     42,
		Duration: 250 * time.Millisecond,
		SLO:      50 * time.Millisecond,
	})
	// Which boundary a live op lands on is wall-clock arrival order, so a
	// probe can fall inside a fault window and ride the host's 1 s ARP
	// retry: the latency verdict is not this test's subject (the CI
	// serve-smoke job asserts it on the long soak) — the session is.
	if errors.Is(err, ErrSLOViolated) {
		t.Logf("soak: %v (not asserted here)", err)
	} else if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if res.Priority.Count == 0 {
		t.Fatal("soak recorded no priority probes")
	}
	live := srv.Wait()
	if live == nil {
		t.Fatal("no live report")
	}
	if live.LeakedFrames != 0 {
		t.Fatalf("live session leaked %d frames", live.LeakedFrames)
	}
	if live.Ops == 0 || live.Events == 0 {
		t.Fatalf("degenerate live session: ops=%d events=%d", live.Ops, live.Events)
	}
	if live.BurstOffered == 0 || live.BurstDelivered == 0 {
		t.Fatalf("soak drove no burst traffic: offered=%d delivered=%d", live.BurstOffered, live.BurstDelivered)
	}

	for _, shards := range []int{1, 2, 4} {
		rep, err := Replay(bytes.NewReader(opLog.Bytes()), shards, io.Discard)
		if err != nil {
			t.Fatalf("replay shards=%d: %v", shards, err)
		}
		if rep.Fingerprint != live.Fingerprint || rep.Events != live.Events {
			t.Fatalf("replay shards=%d fingerprint %#016x (%d events) != live %#016x (%d events)",
				shards, rep.Fingerprint, rep.Events, live.Fingerprint, live.Events)
		}
		// The whole rendered report — classes, streams, bursts, tables,
		// leaks — must reproduce, not just the fingerprint.
		if rep.Text != live.Text {
			t.Fatalf("replay shards=%d report differs from live:\n--- live ---\n%s--- replay ---\n%s",
				shards, live.Text, rep.Text)
		}
	}
}

// testClient is a minimal raw NDJSON client for protocol-level tests.
type testClient struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &testClient{t: t, conn: conn, sc: sc}
}

// raw sends one raw line and decodes the reply loosely (the reply shape
// itself is pinned elsewhere; these tests care about OK/Error).
func (c *testClient) raw(line string) Response {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		c.t.Fatalf("send: %v", err)
	}
	if !c.sc.Scan() {
		c.t.Fatalf("no reply to %s (err=%v)", line, c.sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		c.t.Fatalf("bad reply %q: %v", c.sc.Bytes(), err)
	}
	return resp
}

func (c *testClient) expectErr(line, substr string) {
	c.t.Helper()
	resp := c.raw(line)
	if resp.OK || resp.Error == "" {
		c.t.Fatalf("request %s succeeded, want error containing %q", line, substr)
	}
	if !strings.Contains(resp.Error, substr) {
		c.t.Fatalf("request %s failed with %q, want substring %q", line, resp.Error, substr)
	}
}

// TestServeWireStrict pins the trust boundary: unknown fields, unknown
// ops, unresolvable names and illegal ops are rejected with an error
// response — and none of them consume a sequence number or reach the
// op-log.
func TestServeWireStrict(t *testing.T) {
	var opLog bytes.Buffer
	// No spare jacks: host moves must be rejected as illegal here.
	srv, err := New(Options{
		Spec:  fabric.Spec{Seed: 3, Topology: fabric.TopologySpec{Family: "ring", N: 4}},
		OpLog: &opLog,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	c := dialTest(t, ln.Addr().String())

	info := c.raw(`{"op":"info"}`)
	if !info.OK || info.Info == nil || len(info.Info.Hosts) < 2 {
		t.Fatalf("info failed: %+v", info)
	}
	h0, h1 := info.Info.Hosts[0], info.Info.Hosts[1]
	if len(info.Info.Mobile) != 0 {
		t.Fatalf("ring without spare jacks reports mobile hosts %v", info.Info.Mobile)
	}

	c.expectErr(`{"op":"bogus"}`, "unknown op")
	c.expectErr(`{"op":"ping","sources":"x"}`, "bad request")
	c.expectErr(fmt.Sprintf(`{"op":"ping","src":"nope","dst":%q}`, h1), "unknown host")
	c.expectErr(fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q}`, h0, h0), "src and dst are both")
	c.expectErr(`{"op":"flap","link":"nope"}`, "unknown link")
	c.expectErr(fmt.Sprintf(`{"op":"host-move","host":%q}`, h0), "spare jack")
	c.expectErr(fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q,"count":100000}`, h0, h1), "outside")
	c.expectErr(`{"op":"ping","src":"a","dst":"b"} trailing`, "bad request")

	// A rejected op consumes nothing: the first accepted op is seq 1.
	ok := c.raw(fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q,"class":"priority"}`, h0, h1))
	if !ok.OK || ok.Seq != 1 {
		t.Fatalf("first accepted op got seq %d (resp %+v), want 1", ok.Seq, ok)
	}
	if resp := c.raw(`{"op":"drain"}`); !resp.OK {
		t.Fatalf("drain failed: %+v", resp)
	}
	stats := c.raw(`{"op":"stats"}`)
	if !stats.OK || stats.Stats == nil {
		t.Fatalf("stats failed: %+v", stats)
	}
	if stats.Stats.LiveFrames != 0 {
		t.Fatalf("%d frames live after drain", stats.Stats.LiveFrames)
	}
	if pri := stats.Stats.Classes[ClassPriority]; pri.Count == 0 {
		t.Fatalf("priority class empty after drained ping: %+v", stats.Stats.Classes)
	}
	metricsResp := c.raw(`{"op":"metrics"}`)
	if !metricsResp.OK || !strings.Contains(metricsResp.Metrics, "fabricserve_class_latency_seconds") {
		t.Fatalf("metrics exposition missing class series:\n%s", metricsResp.Metrics)
	}
	if !c.raw(`{"op":"shutdown"}`).OK {
		t.Fatal("shutdown rejected")
	}
	rep := srv.Wait()
	if rep.Ops != 2 {
		t.Fatalf("session logged %d ops, want 2 (rejects must not log)", rep.Ops)
	}
	// Exactly header + two entries + the seal in the log.
	lines := bytes.Count(bytes.TrimSpace(opLog.Bytes()), []byte("\n")) + 1
	if lines != 4 {
		t.Fatalf("op-log has %d lines, want 4 (header + 2 ops + seal)", lines)
	}
}

// TestServeCountsLearningTables: table occupancy is read through every
// bridge's PathTables, so a learning (or STP) fabric's filtering databases
// are counted by the stats op and swept and reported at session end —
// not skipped because the daemon only knew the All-Path bridge types.
func TestServeCountsLearningTables(t *testing.T) {
	stats, rep := pingAndStats(t, fabric.ProtocolSpec{Name: "learning"})
	// Three switches each learn both hosts of the ping.
	if stats.TableEntries != 6 {
		t.Fatalf("stats on a learning fabric: entries=%d, want 6", stats.TableEntries)
	}
	if rep.TableEntries != stats.TableEntries || rep.TableEvictions != stats.TableEvictions {
		t.Fatalf("session report: entries=%d evictions=%d, want the live %d and %d",
			rep.TableEntries, rep.TableEvictions, stats.TableEntries, stats.TableEvictions)
	}
}

// TestServeCountsTableEvictions: a bounded table's evictions are summed
// from every bridge by the stats op and carried into the session report.
func TestServeCountsTableEvictions(t *testing.T) {
	stats, rep := pingAndStats(t, fabric.ProtocolSpec{
		Name: "arppath",
		// One slot per bridge, and a lock window shorter than the reply's
		// round trip, so the request's entry is no longer guarded when
		// learning the reply's source evicts it.
		Config: json.RawMessage(`{"lock_timeout":"1µs","table_capacity":1,"table_policy":"lru"}`),
	})
	if stats.TableEntries == 0 || stats.TableEvictions == 0 {
		t.Fatalf("stats on a bounded fabric: entries=%d evictions=%d, want both non-zero",
			stats.TableEntries, stats.TableEvictions)
	}
	if rep.TableEntries == 0 || rep.TableEvictions != stats.TableEvictions {
		t.Fatalf("session report: entries=%d evictions=%d, want live entries and %d evictions",
			rep.TableEntries, rep.TableEvictions, stats.TableEvictions)
	}
}

// pingAndStats boots a daemon on a 3-bridge line running proto, pings
// end to end, drains, and returns the live stats and the session report.
func pingAndStats(t *testing.T, proto fabric.ProtocolSpec) (*Stats, *Report) {
	t.Helper()
	srv, err := New(Options{Spec: fabric.Spec{
		Seed:     5,
		Topology: fabric.TopologySpec{Family: "line", N: 3},
		Protocol: proto,
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	c := dialTest(t, ln.Addr().String())

	info := c.raw(`{"op":"info"}`)
	if !info.OK || info.Info == nil || len(info.Info.Hosts) < 2 {
		t.Fatalf("info failed: %+v", info)
	}
	hosts := info.Info.Hosts
	if resp := c.raw(fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q}`, hosts[0], hosts[len(hosts)-1])); !resp.OK {
		t.Fatalf("ping rejected: %+v", resp)
	}
	if resp := c.raw(`{"op":"drain"}`); !resp.OK {
		t.Fatalf("drain failed: %+v", resp)
	}
	stats := c.raw(`{"op":"stats"}`)
	if !stats.OK || stats.Stats == nil {
		t.Fatalf("stats failed: %+v", stats)
	}
	if !c.raw(`{"op":"shutdown"}`).OK {
		t.Fatal("shutdown rejected")
	}
	return stats.Stats, srv.Wait()
}

// TestReplayRejectsGarbage pins op-log strictness: empty logs, bad
// versions, unknown fields and time regressions all fail loudly instead
// of replaying something other than what ran.
func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(strings.NewReader(""), 0, io.Discard); err == nil {
		t.Fatal("empty op-log replayed")
	}
	if _, err := Replay(strings.NewReader(`{"fabricserve":9,"spec":{},"quantum":"10ms"}`+"\n"), 0, io.Discard); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted (err=%v)", err)
	}
	header := `{"fabricserve":1,"spec":{"topology":{"family":"ring","n":3}},"quantum":"10ms"}`
	if _, err := Replay(strings.NewReader(header+"\n"+`{"at":"5ms","seq":1,"zap":true}`+"\n"), 0, io.Discard); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("unknown entry field accepted (err=%v)", err)
	}
	// A fault op without a kind is refused, not read as a link-down.
	if _, err := Replay(strings.NewReader(header+"\n"+`{"at":"5ms","seq":1,"fault":[{"at":"0s","link":0}]}`+"\n"), 0, io.Discard); err == nil || !strings.Contains(err.Error(), `line 2: scenario op: an op requires field "kind"`) {
		t.Fatalf("fault op without a kind accepted (err=%v)", err)
	}
	// A header whose spec carries a value no bridge can run with is an
	// error too — it used to panic in a timer two frames below Replay —
	// and the daemon refuses the same spec at boot.
	unusable := `{"topology":{"family":"ring","n":3},"protocol":{"name":"stp","config":{"hello":"-1s"}}}`
	if _, err := Replay(strings.NewReader(`{"fabricserve":1,"spec":`+unusable+`,"quantum":"10ms"}`+"\n"), 0, io.Discard); err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("unusable header spec accepted (err=%v)", err)
	}
	if spec, err := fabric.DecodeSpec([]byte(unusable)); err != nil {
		t.Fatal(err)
	} else if _, err := New(Options{Spec: spec}); err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("daemon booted on an unusable spec (err=%v)", err)
	}
	// The daemon serves a fabric: a spec naming a workload kind, in a
	// header or at boot, would have its workload dropped, so it is refused.
	withKind := `{"topology":{"family":"ring","n":3},"workload":{"kind":"ping"}}`
	if _, err := Replay(strings.NewReader(`{"fabricserve":1,"spec":`+withKind+`,"quantum":"10ms"}`+"\n"), 0, io.Discard); err == nil || !strings.Contains(err.Error(), `workload kind "ping"`) {
		t.Fatalf("header spec naming a workload kind accepted (err=%v)", err)
	}
	if _, err := New(Options{Spec: fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "ping"}}}); err == nil || !strings.Contains(err.Error(), `workload kind "ping"`) {
		t.Fatalf("daemon booted on a spec naming a workload kind (err=%v)", err)
	}
	backwards := header + "\n" +
		`{"at":"20ms","seq":1,"heal":true}` + "\n" +
		`{"at":"5ms","seq":2,"heal":true}` + "\n"
	if _, err := Replay(strings.NewReader(backwards), 0, io.Discard); err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("time regression accepted (err=%v)", err)
	}
	// A sound minimal log replays, and the report is shard-stable.
	sound := header + "\n" + `{"at":"100ms","seq":1,"heal":true}` + "\n"
	rep1, err := Replay(strings.NewReader(sound), 1, io.Discard)
	if err != nil {
		t.Fatalf("minimal log: %v", err)
	}
	rep2, err := Replay(strings.NewReader(sound), 2, io.Discard)
	if err != nil {
		t.Fatalf("minimal log shards=2: %v", err)
	}
	if rep1.Fingerprint != rep2.Fingerprint || rep1.Text != rep2.Text {
		t.Fatal("minimal log replays differently at shards 1 vs 2")
	}
}

// TestServeRefusesSpansPastTheClock: an op whose durations — carried or
// derived — would carry the virtual clock past MaxSpan is refused with
// ok:false before it is acknowledged or logged. Each of these used to be
// acknowledged and logged, and the first one then killed the daemon inside
// an engine event ("scheduling event at -2562047h… before now"). After the
// refusals the daemon still answers, and its session replays to the live
// report.
func TestServeRefusesSpansPastTheClock(t *testing.T) {
	var opLog bytes.Buffer
	srv, err := New(Options{Spec: soakSpec(2), Quantum: 5 * time.Millisecond, OpLog: &opLog})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	c := dialTest(t, ln.Addr().String())
	c.conn.SetDeadline(time.Now().Add(30 * time.Second)) // a dead daemon fails the test, never hangs it
	info := c.raw(`{"op":"info"}`)
	if !info.OK || info.Info == nil || len(info.Info.Hosts) < 2 || len(info.Info.Mobile) == 0 {
		t.Fatalf("info: %+v", info)
	}
	h0, h1 := info.Info.Hosts[0], info.Info.Hosts[1]
	link, mobile := info.Info.Links[0], info.Info.Mobile[0]
	const end = math.MaxInt64
	for _, line := range []string{
		fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q,"timeout":%d}`, h0, h1, int64(end)),
		fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q,"count":3,"interval":%d}`, h0, h1, int64(end/2)),
		fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q,"count":1000,"interval":%d}`, h0, h1, int64(MaxSpan/500)),
		fmt.Sprintf(`{"op":"flap","link":%q,"for":%d}`, link, int64(end)),
		fmt.Sprintf(`{"op":"set-loss","link":%q,"rate":0.5,"for":%d}`, link, int64(end)),
		fmt.Sprintf(`{"op":"host-move","host":%q,"for":%d}`, mobile, int64(end)),
		fmt.Sprintf(`{"op":"partition","seed":3,"for":%d}`, int64(end)),
		fmt.Sprintf(`{"op":"burst","src":%q,"dst":%q,"count":4,"interval":%d}`, h0, h1, int64(end/2)),
		fmt.Sprintf(`{"op":"matrix","flows":2,"interval":%d}`, int64(end/8)),
	} {
		c.expectErr(line, "not a span")
	}
	stats := c.raw(`{"op":"stats"}`)
	if !stats.OK || stats.Stats == nil || stats.Stats.OpsApplied != 0 {
		t.Fatalf("stats after the refusals: %+v", stats)
	}
	if resp := c.raw(fmt.Sprintf(`{"op":"ping","src":%q,"dst":%q}`, h0, h1)); !resp.OK || resp.Seq != 1 {
		t.Fatalf("first sound op after the refusals: %+v, want ok with seq 1", resp)
	}
	// A logged drain ends both sessions at the same virtual time.
	if !c.raw(`{"op":"drain"}`).OK {
		t.Fatal("drain rejected")
	}
	if !c.raw(`{"op":"shutdown"}`).OK {
		t.Fatal("shutdown rejected")
	}
	live := srv.Wait()
	rep, err := Replay(bytes.NewReader(opLog.Bytes()), 1, io.Discard)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Text != live.Text {
		t.Fatalf("replay differs from live:\n--- live ---\n%s--- replay ---\n%s", live.Text, rep.Text)
	}
}

// TestReplayRefusesBoundaryPastTheClock: an op-log entry stamped past
// MaxSpan is an error naming its line, at every shard count. It used to
// panic at shards 1 and spin forever at 2 and more (the coordinator's
// inclusive bound wrapped below every key), so each replay runs behind a
// deadline.
func TestReplayRefusesBoundaryPastTheClock(t *testing.T) {
	// A ping still in flight gives the coordinator something to bound.
	log := `{"fabricserve":1,"spec":{"topology":{"family":"ring","n":6}},"quantum":"10ms"}` + "\n" +
		`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":5,"size":56,"interval":"20ms","timeout":"1s","class":"background"}}` + "\n" +
		`{"at":9223372036854775807,"seq":2,"heal":true}` + "\n"
	for _, shards := range []int{1, 2, 4} {
		errc := make(chan error, 1)
		go func() {
			_, err := Replay(strings.NewReader(log), shards, io.Discard)
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "horizon") {
				t.Errorf("shards=%d: replay of an entry past the horizon returned %v", shards, err)
			}
		case <-time.After(20 * time.Second):
			t.Errorf("shards=%d: replay still running after 20s", shards)
		}
	}
}

// ring6Header is the op-log header the replay-input tests put in front of
// their entry lines.
const ring6Header = `{"fabricserve":1,"spec":{"topology":{"family":"ring","n":6}},"quantum":"10ms"}`

// outOfRangeEntries are op-log lines the wire would never have accepted,
// each with a fragment of the error replay must refuse it with. The first
// two used to panic (a frame past the maximum size, an invalid stream
// config); the rest were silently run.
var outOfRangeEntries = []struct{ line, want string }{
	{`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":1,"size":100000,"interval":"20ms","timeout":"1s","class":"background"}}`, "size 100000 outside"},
	{`{"at":"1s","seq":1,"stream":{"src":"H1","dst":"H4","bytes":0}}`, "bytes 0 outside"},
	{`{"at":"1s","seq":1,"stream":{"src":"H1","dst":"H4","bytes":-1}}`, "bytes -1 outside"},
	{`{"at":"1s","seq":1,"stream":{"src":"H2","dst":"H2","bytes":100}}`, "both"},
	{`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":0,"size":56,"interval":"20ms","timeout":"1s","class":"background"}}`, "count 0 outside"},
	{`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":1001,"size":56,"interval":"20ms","timeout":"1s","class":"background"}}`, "count 1001 outside"},
	{`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":1,"size":-1,"interval":"20ms","timeout":"1s","class":"background"}}`, "size -1 outside"},
	{`{"at":"1s","seq":1,"ping":{"src":"H3","dst":"H3","count":1,"size":56,"interval":"20ms","timeout":"1s","class":"background"}}`, "both"},
	{`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":1,"size":56,"interval":"0s","timeout":"1s","class":"background"}}`, "must be positive"},
	{`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":1,"size":56,"interval":"20ms","timeout":"1s","class":"urgent"}}`, `class "urgent"`},
}

// TestReplayRefusesOutOfRangeEntries: a hand-written op-log line outside
// the bounds a live request is held to is an error naming its line, at
// shards 1 and 2 — the same check runs on both paths.
func TestReplayRefusesOutOfRangeEntries(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, tc := range outOfRangeEntries {
			_, err := Replay(strings.NewReader(ring6Header+"\n"+tc.line+"\n"), shards, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "op-log line 2") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("shards=%d: replay of %s returned %v, want an op-log line 2 error containing %q", shards, tc.line, err, tc.want)
			}
		}
	}
}

// renumberedLogs are op-log bodies whose entries are not numbered 1, 2,
// 3… as the daemon writes them, each with the line replay must refuse.
// They used to replay: a duplicated line ran its op twice, and a lone
// seq-7 entry reported seven ops.
var renumberedLogs = []struct {
	name, body string
	line       int
}{
	{"duplicated", heal(1, "10ms") + heal(1, "10ms"), 3},
	{"skipped", heal(1, "10ms") + heal(3, "20ms"), 3},
	{"lone-seq-7", heal(7, "10ms"), 2},
	{"swapped", heal(2, "10ms") + heal(1, "20ms"), 2},
	{"unnumbered", `{"at":"10ms","heal":true}` + "\n", 2},
}

// heal is one heal entry line numbered seq at time at.
func heal(seq int, at string) string {
	return fmt.Sprintf(`{"at":%q,"seq":%d,"heal":true}`+"\n", at, seq)
}

// TestReplayRefusesRenumberedLog: an entry whose seq is not the previous
// one plus one is an error naming its line and the seq it should carry.
func TestReplayRefusesRenumberedLog(t *testing.T) {
	for _, tc := range renumberedLogs {
		_, err := Replay(strings.NewReader(ring6Header+"\n"+tc.body), 1, io.Discard)
		if want := fmt.Sprintf("op-log line %d: seq", tc.line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: replay returned %v, want an error containing %q", tc.name, err, want)
		}
	}
	rep, err := Replay(strings.NewReader(ring6Header+"\n"+heal(1, "10ms")+heal(2, "20ms")), 1, io.Discard)
	if err != nil || rep.Ops != 2 {
		t.Fatalf("a log numbered 1, 2 replayed to %+v, %v; want 2 ops", rep, err)
	}
}

// TestOpLogSeal: a live session ends its op-log with a seal. The sealed
// log replays to the live report byte for byte. Cut at any line boundary
// it still replays, and the report says it is unsealed and how many ops it
// held; with every op but no seal, that line is the only difference (the
// session ends on a drain, so no idle time is lost with the seal). A
// seal the replay does not reach — other ops, another fingerprint, an end
// before the replay's own or past MaxSpan — a line after the seal and a
// seal that carries an op are errors.
func TestOpLogSeal(t *testing.T) {
	var opLog bytes.Buffer
	spec := fabric.Spec{Seed: 5, Topology: fabric.TopologySpec{Family: "ring", N: 6}}
	srv, err := New(Options{Spec: spec, Quantum: 10 * time.Millisecond, OpLog: &opLog})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, req := range []Request{
		{Op: "ping", Src: "H1", Dst: "H4", Count: 3},
		{Op: "burst", Src: "H2", Dst: "H5", Count: 20},
		{Op: "ping", Src: "H3", Dst: "H6", Count: 2},
		// Without it the live loop idles on to shutdown, which no entry
		// but the seal records.
		{Op: "drain"},
	} {
		if resp := srv.do(req); !resp.OK {
			t.Fatalf("%+v: %+v", req, resp)
		}
	}
	srv.Shutdown()
	live := srv.Wait()
	log := opLog.String()
	lines := strings.SplitAfter(log, "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	if len(lines) != 6 || !strings.HasPrefix(lines[5], `{"seal":`) {
		t.Fatalf("op-log of 4 ops does not end in a seal:\n%s", log)
	}

	rep, err := Replay(strings.NewReader(log), 2, io.Discard)
	if err != nil || rep.Text != live.Text {
		t.Fatalf("sealed log replayed to %v:\n%v\nwant the live report:\n%s", err, rep, live.Text)
	}
	for n := 1; n < len(lines); n++ {
		rep, err := Replay(strings.NewReader(strings.Join(lines[:n], "")), 1, io.Discard)
		want := fmt.Sprintf("op-log: unsealed (%d ops)\n", n-1)
		if err != nil || !strings.HasSuffix(rep.Text, want) {
			t.Fatalf("log cut after line %d replayed to %v, want a report ending %q:\n%v", n, err, want, rep)
		}
		if n == len(lines)-1 && rep.Text != live.Text+want {
			t.Fatalf("every op but the seal replayed to\n%s\nwant the live report and %q", rep.Text, want)
		}
	}

	var sealed struct{ Seal logSeal }
	if err := json.Unmarshal([]byte(lines[5]), &sealed); err != nil {
		t.Fatal(err)
	}
	body := strings.Join(lines[:5], "")
	for _, bad := range []logSeal{
		{sealed.Seal.Ops + 1, sealed.Seal.Virtual, sealed.Seal.Fingerprint},
		{sealed.Seal.Ops, sealed.Seal.Virtual - 1, sealed.Seal.Fingerprint},
		{sealed.Seal.Ops, sealed.Seal.Virtual, sealed.Seal.Fingerprint ^ 1},
		{sealed.Seal.Ops, fabric.Duration(MaxSpan + 1), sealed.Seal.Fingerprint},
	} {
		line, _ := json.Marshal(logEntry{Seal: &bad})
		if _, err := Replay(strings.NewReader(body+string(line)+"\n"), 1, io.Discard); err == nil || !strings.Contains(err.Error(), "op-log seal") {
			t.Errorf("seal %+v the replay does not reach: err = %v", bad, err)
		}
	}
	after := log + heal(5, "10s")
	if _, err := Replay(strings.NewReader(after), 1, io.Discard); err == nil || !strings.Contains(err.Error(), "line 7: entry after the seal") {
		t.Errorf("entry after the seal: err = %v", err)
	}
	withOp := body + strings.Replace(lines[5], `{"seal":`, `{"heal":true,"seal":`, 1)
	if _, err := Replay(strings.NewReader(withOp), 1, io.Discard); err == nil || !strings.Contains(err.Error(), "line 6: the seal carries an op") {
		t.Errorf("seal carrying an op: err = %v", err)
	}

	// A session that idles after its last op (the ping's canceled timeout
	// timers keep the loop stepping) replays to its live report too: the
	// seal carries the virtual end no entry records.
	opLog.Reset()
	if srv, err = New(Options{Spec: spec, Quantum: 10 * time.Millisecond, OpLog: &opLog}); err != nil {
		t.Fatalf("New: %v", err)
	}
	if resp := srv.do(Request{Op: "ping", Src: "H1", Dst: "H4"}); !resp.OK {
		t.Fatalf("ping: %+v", resp)
	}
	srv.Shutdown()
	live = srv.Wait()
	if rep, err := Replay(bytes.NewReader(opLog.Bytes()), 1, io.Discard); err != nil || rep.Text != live.Text {
		t.Fatalf("idle session replayed to %v:\n%v\nwant the live report:\n%s", err, rep, live.Text)
	}
}

// FuzzReplayEntry holds replay to its trust boundary: whatever one entry
// line after a fixed ring-6 header says, Replay returns a report or an
// error and never panics.
func FuzzReplayEntry(f *testing.F) {
	for _, tc := range outOfRangeEntries {
		f.Add(tc.line)
	}
	f.Add(`{"at":"1s","seq":1,"ping":{"src":"H1","dst":"H4","count":5,"size":56,"interval":"20ms","timeout":"1s","class":"background"}}`)
	f.Add(`{"at":"1s","seq":1,"fault":[{"at":"0s","kind":"link-down","link":0}]}`)
	f.Add(`{"at":"1s","seq":1,"drain":true}`)
	f.Add(`{"seal":{"ops":0,"virtual":"100ms","fingerprint":1}}`)
	f.Fuzz(func(t *testing.T, line string) {
		rep, err := Replay(strings.NewReader(ring6Header+"\n"+line+"\n"), 1, io.Discard)
		if err == nil && rep == nil {
			t.Fatal("replay returned neither a report nor an error")
		}
	})
}

// fuzzSpec is FuzzServeRequest's fabric: four bridges meshed, every host
// with a spare jack so host moves are in play, on two shards.
var fuzzSpec = fabric.Spec{
	Seed:     11,
	Shards:   2,
	Topology: fabric.TopologySpec{Family: "erdos-renyi", N: 4, P: 0.9, SpareJacks: true},
}

// FuzzServeRequest holds the live wire to its trust boundary: one fuzzed
// line goes through the strict decode and the serving loop exactly as a
// connection's line does, and is answered as an accepted op or an error,
// never a panic. The session goes on afterwards: a stats op still
// answers (unless the line shut the session down), and shutdown ends it
// with a report and no leaked frame.
func FuzzServeRequest(f *testing.F) {
	for _, tc := range outOfRangeEntries {
		f.Add(tc.line)
	}
	for _, line := range []string{
		`{"op":"ping","src":"H1","dst":"H3","count":3,"interval":"5ms","class":"priority"}`,
		`{"op":"ping","src":"H1","dst":"H3","size":100000}`,
		`{"op":"stream","src":"H2","dst":"H4","bytes":20000}`,
		`{"op":"stream","src":"H2","dst":"H4","bytes":-1}`,
		`{"op":"burst","src":"H1","dst":"H2","count":10,"payload":200,"interval":"1ms"}`,
		`{"op":"matrix","flows":4,"count":5,"interval":"1ms","seed":3}`,
		`{"op":"link-down","link":"S1-S2"}`,
		`{"op":"link-up","link":"S1-S2"}`,
		`{"op":"flap","link":"S2-S3","for":"5ms"}`,
		`{"op":"set-loss","link":"S1-S3","side":1,"rate":0.5,"for":"20ms"}`,
		`{"op":"clear-loss","link":"S1-S3","side":1}`,
		`{"op":"bridge-restart","bridge":"S4"}`,
		`{"op":"host-move","host":"H1","for":"10ms"}`,
		`{"op":"host-return","host":"H1"}`,
		`{"op":"partition","seed":5,"for":"10ms"}`,
		`{"op":"heal"}`,
		`{"op":"info"}`,
		`{"op":"stats"}`,
		`{"op":"metrics"}`,
		`{"op":"drain"}`,
		`{"op":"shutdown"}`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		srv, err := New(Options{Spec: fuzzSpec})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if resp := srv.answer([]byte(line)); resp.OK == (resp.Error != "") {
			t.Fatalf("%s: answered %+v, want exactly one of ok and an error", line, resp)
		}
		if st := srv.do(Request{Op: "stats"}); !st.OK || st.Stats == nil {
			select {
			case <-srv.doneCh: // the line was a shutdown
			default:
				t.Fatalf("%s: stats afterwards answered %+v", line, st)
			}
		}
		srv.Shutdown()
		if rep := srv.Wait(); rep == nil || rep.LeakedFrames != 0 {
			t.Fatalf("%s: session ended with report %+v", line, rep)
		}
	})
}

// TestServeRefusesMalformed pins the daemon's refusal of each malformed
// request line to its exact text, so a changed message is a visible diff
// here. Every row is refused before it touches the fabric, and the
// session ends without a leaked frame.
func TestServeRefusesMalformed(t *testing.T) {
	variations := []struct {
		name string
		line string
		want string
	}{
		{name: "Not JSON", line: `ping H1 H3`, want: "bad request: invalid character 'p' looking for beginning of value"},
		{name: "Truncated object", line: `{"op":"ping"`, want: "bad request: unexpected EOF"},
		{name: "Array instead of object", line: `[]`, want: "bad request: json: cannot unmarshal array into Go value of type serve.Request"},
		{name: "Trailing second op", line: `{"op":"stats"} {"op":"stats"}`, want: "bad request: trailing data after the op object"},
		{name: "Unknown field", line: `{"op":"stats","colour":"red"}`, want: `bad request: json: unknown field "colour"`},
		{name: "Wrong field type", line: `{"op":"ping","src":1,"dst":"H3"}`, want: "bad request: json: cannot unmarshal number into Go struct field Request.src of type string"},
		{name: "Empty op", line: `{}`, want: `unknown op ""`},
		{name: "Unknown op", line: `{"op":"teleport"}`, want: `unknown op "teleport"`},
		{name: "Unknown host", line: `{"op":"ping","src":"H9","dst":"H3"}`, want: `unknown host "H9"`},
		{name: "Ping to itself", line: `{"op":"ping","src":"H1","dst":"H1"}`, want: `ping src and dst are both "H1"`},
		{name: "Unparsable duration", line: `{"op":"ping","src":"H1","dst":"H3","interval":"soon"}`, want: `bad request: invalid duration "soon": time: invalid duration "soon"`},
		{name: "Negative interval", line: `{"op":"ping","src":"H1","dst":"H3","interval":"-5ms"}`, want: "ping interval and timeout must be positive"},
		{name: "Oversized ping", line: `{"op":"ping","src":"H1","dst":"H3","size":100000}`, want: "ping size 100000 outside [0,1400]"},
		{name: "Too many pings", line: `{"op":"ping","src":"H1","dst":"H3","count":1001}`, want: "ping count 1001 outside [1,1000]"},
		{name: "Negative stream", line: `{"op":"stream","src":"H2","dst":"H4","bytes":-1}`, want: "stream bytes -1 outside [1,64MiB]"},
		{name: "Unknown link", line: `{"op":"link-down","link":"S1-S9"}`, want: `unknown link "S1-S9"`},
		{name: "Loss rate above one", line: `{"op":"set-loss","link":"S1-S3","side":1,"rate":1.5}`, want: "loss rate 1.5 outside [0,1]"},
		{name: "Loss on a third side", line: `{"op":"set-loss","link":"S1-S3","side":2,"rate":0.5}`, want: "loss side 2 must be 0 or 1"},
		{name: "Unknown bridge", line: `{"op":"bridge-restart","bridge":"S9"}`, want: `unknown bridge "S9"`},
		{name: "Unknown host to move", line: `{"op":"host-move","host":"H9","for":"10ms"}`, want: `unknown host "H9"`},
		{name: "Unknown class", line: `{"op":"ping","src":"H1","dst":"H3","class":"urgent"}`, want: `ping class "urgent" is neither priority nor background`},
		{name: "Field a workload op does not read", line: `{"op":"ping","src":"H1","dst":"H3","link":"S1-S3","bytes":9}`, want: "bytes: ping does not read it"},
		{name: "Field a control op does not read", line: `{"op":"stats","count":5,"host":"H9"}`, want: "count: stats does not read it"},
		{name: "Field a fault op does not read", line: `{"op":"heal","src":"H1"}`, want: "src: heal does not read it"},
		{name: "Field shutdown does not read", line: `{"op":"shutdown","for":"1s"}`, want: "for: shutdown does not read it"},
	}
	srv, err := New(Options{Spec: fuzzSpec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, v := range variations {
		t.Run(v.name, func(t *testing.T) {
			if resp := srv.answer([]byte(v.line)); resp.OK || resp.Error != v.want {
				t.Fatalf("%s answered %+v, want the refusal %q", v.line, resp, v.want)
			}
		})
	}
	srv.Shutdown()
	if rep := srv.Wait(); rep == nil || rep.Ops != 0 || rep.LeakedFrames != 0 {
		t.Fatalf("session ended with report %+v, want no op run and no leaked frame", rep)
	}
}

// requestFields sets each Request field but op to a value every op that
// reads it accepts on fuzzSpec's fabric.
var requestFields = map[string]func(*Request){
	"src":      func(r *Request) { r.Src = "H1" },
	"dst":      func(r *Request) { r.Dst = "H3" },
	"class":    func(r *Request) { r.Class = ClassPriority },
	"count":    func(r *Request) { r.Count = 2 },
	"size":     func(r *Request) { r.Size = 8 },
	"interval": func(r *Request) { r.Interval = fabric.Duration(time.Millisecond) },
	"timeout":  func(r *Request) { r.Timeout = fabric.Duration(time.Second) },
	"bytes":    func(r *Request) { r.Bytes = 1000 },
	"payload":  func(r *Request) { r.Payload = 100 },
	"flows":    func(r *Request) { r.Flows = 2 },
	"link":     func(r *Request) { r.Link = "S1-S2" },
	"bridge":   func(r *Request) { r.Bridge = "S1" },
	"host":     func(r *Request) { r.Host = "H1" },
	"side":     func(r *Request) { r.Side = 1 },
	"rate":     func(r *Request) { r.Rate = 0.5 },
	"for":      func(r *Request) { r.For = fabric.Duration(5 * time.Millisecond) },
	"seed":     func(r *Request) { r.Seed = 3 },
}

// TestOpTableKeys holds the daemon to its op table: for every row, a
// request that sets every field the op reads is accepted, and the same
// request with any other field set is refused, naming the field and the
// op, before it is applied or logged. requestFields covers every Request
// field but op.
func TestOpTableKeys(t *testing.T) {
	typ := reflect.TypeOf(Request{})
	for i := 1; i < typ.NumField(); i++ { // field 0 is the op
		if key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); requestFields[key] == nil {
			t.Errorf("Request field %s has no requestFields sample", key)
		}
	}
	srv, err := New(Options{Spec: fuzzSpec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fields := slices.Sorted(maps.Keys(requestFields))
	accepted := uint64(0)
	for _, o := range wireOps {
		full := Request{Op: o.name}
		for _, key := range o.reads {
			requestFields[key](&full)
		}
		for _, key := range fields {
			if slices.Contains(o.reads, key) {
				continue
			}
			req := full
			requestFields[key](&req)
			if resp := srv.do(req); resp.OK || resp.Error != key+": "+o.name+" does not read it" {
				t.Errorf("%s with %s set answered %+v, want a refusal naming both", o.name, key, resp)
			}
		}
		if o.name == "shutdown" {
			continue // Shutdown below sends it
		}
		if resp := srv.do(full); !resp.OK {
			t.Errorf("%s with every field it reads set answered %+v", o.name, resp)
		} else if o.compile != nil {
			accepted++
		}
	}
	srv.Shutdown()
	if rep := srv.Wait(); rep == nil || rep.Ops != accepted || rep.LeakedFrames != 0 {
		t.Fatalf("session ended with report %+v, want %d ops and no leaked frame", rep, accepted)
	}
}
