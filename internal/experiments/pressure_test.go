package experiments

import "testing"

// smallTables keeps the eviction-pressure gates fast: a few hundred
// conversations still exercise every capacity point (n/32 ≥ 12) and all
// three protocol variants.
func smallTables(seed int64) TablesConfig {
	return DefaultTablesConfig(seed, 400)
}

// TestTablesPressureSignals pins the experiment's semantic contract: the
// unbounded baseline completes and revisits every conversation with zero
// evictions, and every bounded row that does evict stays within its
// configured capacity at peak (modulo entries admitted over capacity
// while race-guarded).
func TestTablesPressureSignals(t *testing.T) {
	rs := RunTables(smallTables(29))
	if len(rs) != 12 {
		t.Fatalf("sweep produced %d rows, want 12 (3 variants × 4 points)", len(rs))
	}
	for _, r := range rs {
		run := r.Run
		if run.Completed == 0 {
			t.Fatalf("%s %s/%d: no conversation completed", r.Variant, r.Policy, r.Capacity)
		}
		if r.Capacity == 0 {
			if run.Evictions != 0 {
				t.Fatalf("%s unbounded baseline evicted %d entries", r.Variant, run.Evictions)
			}
			if run.Completed != run.Conversations || run.Revisited != run.Conversations {
				t.Fatalf("%s unbounded baseline dropped work: completed %d revisited %d of %d",
					r.Variant, run.Completed, run.Revisited, run.Conversations)
			}
		} else if run.Evictions == 0 {
			t.Fatalf("%s %s/%d: bounded run under churn produced no evictions; pressure not exercised",
				r.Variant, r.Policy, r.Capacity)
		}
	}
}
