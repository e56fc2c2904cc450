package experiments

import (
	"testing"
	"time"
)

func TestT5LockWindowSweep(t *testing.T) {
	rows := RunT5LockWindow(paper(1), []time.Duration{
		time.Millisecond,       // far below the 8ms flood traversal
		20 * time.Millisecond,  // above traversal, below reply RTT margin
		200 * time.Millisecond, // the default
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	short, mid, deflt := rows[0], rows[1], rows[2]
	if short.Sent != 10 || mid.Sent != 10 || deflt.Sent != 10 {
		t.Fatalf("sent counts: %d/%d/%d", short.Sent, mid.Sent, deflt.Sent)
	}
	// The default window must be clean: no losses, no repair storms.
	if deflt.Lost != 0 {
		t.Fatalf("default window lost %d pings", deflt.Lost)
	}
	// A window below the flood traversal must visibly degrade discovery:
	// replies meet expired entries, triggering repairs (path requests) or
	// drops; the fabric works noticeably harder than at the default.
	if short.Repairs+short.SrcPortDrops <= deflt.Repairs+deflt.SrcPortDrops {
		t.Fatalf("short window showed no degradation: short=%d+%d default=%d+%d",
			short.Repairs, short.SrcPortDrops, deflt.Repairs, deflt.SrcPortDrops)
	}
	if T5Table(rows).Rows() != 3 {
		t.Fatal("table rendering")
	}
}

func TestT6TableSizeScaling(t *testing.T) {
	rows := RunT6TableSize(paper(1), []int{8, 16})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// STP learning switches remember every host they saw flood —
		// state grows with the host count at every bridge.
		if r.STPMean < float64(r.Hosts)/2 {
			t.Fatalf("n=%d: STP mean %v implausibly small", r.Hosts, r.STPMean)
		}
		// ARP-Path keeps only confirmed paths after the lock windows
		// expire; off-path bridges hold nothing about remote exchanges.
		if r.ARPPathMean >= r.STPMean {
			t.Fatalf("n=%d: ARP-Path state %v not smaller than STP %v",
				r.Hosts, r.ARPPathMean, r.STPMean)
		}
	}
	// And the gap should widen with fabric size.
	gapSmall := rows[0].STPMean - rows[0].ARPPathMean
	gapLarge := rows[1].STPMean - rows[1].ARPPathMean
	if gapLarge <= gapSmall {
		t.Fatalf("state gap did not grow: %v then %v", gapSmall, gapLarge)
	}
	if T6Table(rows).Rows() != 2 {
		t.Fatal("table rendering")
	}
}
