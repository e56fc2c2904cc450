package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
)

// The simulator's central promise: same seed, same run — down to every
// RTT, path and repair time. These tests re-run whole experiments and
// compare the complete result structures.

func TestFigure2Deterministic(t *testing.T) {
	cfg := DefaultFigure2Config()
	cfg.Pings = 5
	cfg.Profiles = []topo.Figure2Profile{topo.ProfileSlowDiagonal}
	a := RunFigure2(cfg)
	b := RunFigure2(cfg)
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i].FirstRTT != b[i].FirstRTT ||
			a[i].RTTs.Mean() != b[i].RTTs.Mean() ||
			!reflect.DeepEqual(a[i].Path, b[i].Path) {
			t.Fatalf("row %d diverged between identical runs", i)
		}
	}
	// A different seed must (in general) shift the absolute timings of
	// the TCP ISNs etc.; paths may match, but at least the run must not
	// be byte-identical to the seeded RNG draws. We settle for the runs
	// simply succeeding — seed sensitivity is covered in internal/sim.
}

func TestFigure3Deterministic(t *testing.T) {
	cfg := DefaultFigure3Config()
	cfg.StreamSize = 4 << 20
	a := RunFigure3(cfg, topo.ARPPath)
	b := RunFigure3(cfg, topo.ARPPath)
	if len(a.Failures) != len(b.Failures) {
		t.Fatal("failure counts differ")
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("failure %d diverged: %+v vs %+v", i, a.Failures[i], b.Failures[i])
		}
	}
	if a.TransferTime != b.TransferTime {
		t.Fatalf("transfer times diverged: %v vs %v", a.TransferTime, b.TransferTime)
	}
	if a.Report.Received != b.Report.Received || a.Report.TotalStall != b.Report.TotalStall {
		t.Fatal("stream reports diverged")
	}
}

func TestT2Deterministic(t *testing.T) {
	a := RunT2Load(7, topo.ARPPath)
	b := RunT2Load(7, topo.ARPPath)
	if a.UsedLinks != b.UsedLinks || a.Jain != b.Jain ||
		a.Delivered != b.Delivered || a.MaxBusy != b.MaxBusy {
		t.Fatalf("T2 diverged: %+v vs %+v", a, b)
	}
}

// The other half of the promise: the execution mode is invisible. cell is
// one column of the determinism matrix — a way of running the same
// workload that may change nothing it renders and nothing in its trace.
type cell struct {
	shards int
	procs  int // GOMAXPROCS for the run; 0 leaves the ambient value
}

// matrixCells lists the columns; every row is held against the first. A
// new axis is a field of cell, a line in observe and the columns that
// vary it — not another test.
var matrixCells = []cell{
	{shards: 1},
	{shards: 2},
	{shards: 4, procs: 1},
	{shards: 4, procs: 2}, // more shards than processors
	{shards: 4, procs: 4},
}

// observation is what one (workload, cell) run is compared by: the bytes
// it rendered and the trace of every fabric it built — one
// fingerprint/events line each, build order, warm-up included.
type observation struct{ rendered, traces string }

// row is one workload of the matrix. It builds its fabrics at the package
// shard count and returns everything it renders.
type row struct {
	name   string
	render func(*testing.T) string
}

// The second result is the coordinator's three deterministic counts per
// fabric. They depend on the shard count, so they are no part of the
// observation; cells that differ only in GOMAXPROCS must agree on them,
// and the scale rows must match scaleCoordPins.
func observe(t *testing.T, c cell, render func(*testing.T) string) (o observation, coord string) {
	prevShards := Shards
	Shards = c.shards
	defer func() { Shards = prevShards }()
	if c.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	}
	var fps []*netsim.TapFingerprint
	var nets []*topo.Net
	prevHook := topo.OnBuilt
	topo.OnBuilt = func(n *topo.Net) {
		fp := netsim.NewTapFingerprint()
		n.Tap(fp.Observe)
		fps = append(fps, fp)
		nets = append(nets, n)
	}
	defer func() { topo.OnBuilt = prevHook }()

	o.rendered = render(t)
	for i, fp := range fps {
		o.traces += fmt.Sprintf("fabric %d: %#016x/%d events\n", i, fp.Sum(), fp.Events())
		cs := nets[i].CoordStats()
		coord += fmt.Sprintf("fabric %d: windows=%d barriers=%d exchanged=%d\n", i, cs.Windows, cs.Barriers, cs.Exchanged)
	}
	return o, coord
}

// smallScale keeps the scale rows fast: a 32-bridge fabric with a short
// traffic window; observe fingerprints its trace like every row's.
// Synchronized CBR flows are the worst case for same-timestamp key
// windows, hence the seed sweep.
func smallScale(seed int64) func(*testing.T) string {
	return func(t *testing.T) string {
		cfg := DefaultScaleConfig(seed, Shards)
		cfg.Bridges = 32
		cfg.Flows = 16
		cfg.Window = 30 * time.Millisecond
		r := RunScale(cfg)
		if r.Delivered == 0 {
			t.Fatalf("degenerate run: %+v", r)
		}
		r.Config.Shards = 0 // the one table column that names the cell
		return ScaleTable([]*ScaleResult{r}).String()
	}
}

// scaleCoordPins are the scale rows' coordinator counts at 2 and 4 shards.
// Traces survive a window bound that is merely too tight, so only these
// counts catch a pending minimum that drifted — say, an arrival's key read
// after its record was consumed.
var scaleCoordPins = map[string]map[int]string{
	"scale-seed3":  {2: "windows=2753 barriers=32 exchanged=3162", 4: "windows=1991 barriers=32 exchanged=7067"},
	"scale-seed5":  {2: "windows=2602 barriers=32 exchanged=3857", 4: "windows=3984 barriers=32 exchanged=5498"},
	"scale-seed11": {2: "windows=5178 barriers=32 exchanged=3555", 4: "windows=8555 barriers=32 exchanged=6823"},
	"scale-seed12": {2: "windows=11306 barriers=32 exchanged=2616", 4: "windows=3677 barriers=32 exchanged=6766"},
	"scale-seed13": {2: "windows=4576 barriers=32 exchanged=8514", 4: "windows=4266 barriers=32 exchanged=7359"},
	"scale-seed14": {2: "windows=10993 barriers=32 exchanged=3264", 4: "windows=9759 barriers=32 exchanged=4322"},
	"scale-seed15": {2: "windows=11583 barriers=32 exchanged=4843", 4: "windows=4876 barriers=32 exchanged=6980"},
}

// TestDeterminismMatrix is the package's one execution-mode differential:
// every workload row must render byte-identical output — tables, the
// tables sweep's JSON artifact — and produce the identical trace
// fingerprint in every cell: any shard count, any GOMAXPROCS. Cells of one shard count also agree on how many windows, barriers
// and cross-shard arrivals the coordinator counted, and the scale rows
// count exactly their pins.
func TestDeterminismMatrix(t *testing.T) {
	rows := []row{
		{"figure1", func(*testing.T) string { return RunFigure1(9).Table().String() }},
		{"t1-properties", func(*testing.T) string { return T1Table(RunT1Properties(9, 3)).String() }},
		{"t5-lock-window", func(*testing.T) string {
			return T5Table(RunT5LockWindow(9, []time.Duration{time.Millisecond, 20 * time.Millisecond})).String()
		}},
		// Eviction decisions, re-discovery storms and flood counts included.
		{"tables", func(t *testing.T) string {
			rs := RunTables(smallTables(13))
			js, err := TablesJSON(rs)
			if err != nil {
				t.Fatal(err)
			}
			return TablesTable(rs).String() + string(js)
		}},
	}
	for _, seed := range []int64{3, 5, 11, 12, 13, 14, 15} {
		rows = append(rows, row{fmt.Sprintf("scale-seed%d", seed), smallScale(seed)})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref, _ := observe(t, matrixCells[0], row.render)
			if ref.traces == "" {
				t.Fatalf("degenerate reference run: no fabric was traced")
			}
			coordAt := map[int]string{} // shard count → the first such cell's counts
			for _, c := range matrixCells[1:] {
				got, coord := observe(t, c, row.render)
				if got != ref {
					t.Errorf("%+v diverged from %+v:\n%s%s\nwant:\n%s%s",
						c, matrixCells[0], got.traces, got.rendered, ref.traces, ref.rendered)
				}
				if want, pinned := scaleCoordPins[row.name][c.shards]; pinned && coord != "fabric 0: "+want+"\n" {
					t.Errorf("%+v: coordinator counts %qwant %q", c, coord, want)
				}
				if first, seen := coordAt[c.shards]; !seen {
					coordAt[c.shards] = coord
				} else if coord != first {
					t.Errorf("%+v: coordinator counts moved with GOMAXPROCS:\n%swant:\n%s", c, coord, first)
				}
			}
		})
	}
}
