package fabric

import (
	"bytes"
	"strings"
	"testing"
)

// TestSpeedupVerdict drives the multi-core gate with synthetic
// (gomaxprocs, shards, wall) rows: the verdict is a function of the
// records alone, so no wall clock is involved.
func TestSpeedupVerdict(t *testing.T) {
	type row struct {
		procs, shards int
		wall          int64
	}
	onePass := func(procs int, wall1, wall2, wall4 int64) []row {
		return []row{{procs, 1, wall1}, {procs, 2, wall2}, {procs, 4, wall4}}
	}
	cases := []struct {
		name     string
		rows     []row
		judged   int    // passes reported on errw
		wantErr  string // substring of the error; "" = nil
		unwanted string // substring the error must not have
	}{
		{name: "4 procs at 2.3x passes",
			rows: append(append(onePass(1, 1000, 1300, 1400), onePass(2, 1000, 700, 650)...), onePass(4, 2300, 1500, 1000)...), judged: 1},
		{name: "4 procs at 1.6x fails naming the pass",
			rows:   append(onePass(1, 1000, 1300, 1400), onePass(4, 1600, 1200, 1000)...),
			judged: 1, wantErr: "gomaxprocs=4: 4 shards ran 1.60x"},
		{name: "only the short pass is named",
			rows:   append(onePass(4, 2500, 1500, 1000), onePass(8, 1900, 1400, 1000)...),
			judged: 2, wantErr: "gomaxprocs=8", unwanted: "gomaxprocs=4"},
		{name: "1-proc matrix is not judged", rows: onePass(1, 1000, 1300, 1400)},
		{name: "2-proc matrix is not judged", rows: append(onePass(1, 1000, 1300, 1400), onePass(2, 1000, 900, 950)...)},
		{name: "no shards-4 row", rows: []row{{4, 1, 1000}, {4, 2, 900}}},
		{name: "no shards-1 row", rows: []row{{4, 2, 900}, {4, 4, 800}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var records []benchRecord
			for _, r := range c.rows {
				records = append(records, benchRecord{Bridges: 256, Shards: r.shards, GOMAXPROCS: r.procs, WallNS: r.wall})
			}
			var errw bytes.Buffer
			err := speedupVerdict(records, &errw)
			if got := strings.Count(errw.String(), "\n"); got != c.judged {
				t.Errorf("judged %d passes, want %d:\n%s", got, c.judged, errw.String())
			}
			if c.wantErr == "" {
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) ||
				(c.unwanted != "" && strings.Contains(err.Error(), c.unwanted)) {
				t.Errorf("err = %v, want one naming %q and not %q", err, c.wantErr, c.unwanted)
			}
		})
	}
}
