package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestHistBucketBoundaries pins the layout: exact width-1 buckets below
// 2^6, then 64 sub-buckets per octave, index↔bounds mutually inverse, and
// monotone non-overlapping coverage of the whole range.
func TestHistBucketBoundaries(t *testing.T) {
	// Exact region.
	for v := int64(0); v < 64; v++ {
		if got := histIndex(v); got != int(v) {
			t.Fatalf("histIndex(%d) = %d, want %d", v, got, v)
		}
	}
	// Octave starts: 2^e must open a fresh sub-bucket block with width
	// 2^(e-6).
	for e := 6; e <= 40; e++ {
		v := int64(1) << e
		i := histIndex(v)
		lo, hi := histBounds(i)
		if lo != v {
			t.Fatalf("bucket %d for 2^%d opens at %d, want %d", i, e, lo, v)
		}
		if want := v >> 6; hi-lo != want {
			t.Fatalf("bucket %d for 2^%d has width %d, want %d", i, e, hi-lo, want)
		}
		// The value one below the octave boundary belongs to the previous
		// bucket.
		if j := histIndex(v - 1); j != i-1 {
			t.Fatalf("histIndex(2^%d-1) = %d, want %d", e, j, i-1)
		}
	}
	// Every bucket's bounds contain exactly the values that map to it, and
	// consecutive buckets tile without gaps.
	prevHi := int64(0)
	for i := 0; i < 64+64*10; i++ {
		lo, hi := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d opens at %d, previous closed at %d", i, lo, prevHi)
		}
		prevHi = hi
		if histIndex(lo) != i || histIndex(hi-1) != i {
			t.Fatalf("bounds of bucket %d [%d,%d) do not map back to it", i, lo, hi)
		}
	}
}

// TestHistQuantileAccuracy compares against the exact Distribution on
// random samples across several magnitudes: the histogram quantile must
// never undershoot and must stay within the 2^-6 relative error bound.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHistogram()
	var d Distribution
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades: nanoseconds to milliseconds.
		v := time.Duration(float64(time.Nanosecond) * pow10(rng.Float64()*6))
		h.Record(v)
		d.Add(v)
	}
	if h.Count() != uint64(d.Count()) {
		t.Fatalf("count %d != %d", h.Count(), d.Count())
	}
	if h.Min() != d.Min() || h.Max() != d.Max() {
		t.Fatalf("min/max %v/%v != %v/%v", h.Min(), h.Max(), d.Min(), d.Max())
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		exact := d.Percentile(p)
		got := h.Percentile(p)
		if got < exact {
			t.Fatalf("p%v: histogram %v undershoots exact %v", p, got, exact)
		}
		if limit := exact + exact>>6 + 1; got > limit {
			t.Fatalf("p%v: histogram %v exceeds error bound %v (exact %v)", p, got, limit, exact)
		}
	}
	// Mean is computed from the exact sum, not the buckets.
	if h.Mean() != d.Mean() {
		t.Fatalf("mean %v != %v", h.Mean(), d.Mean())
	}
}

func pow10(x float64) float64 {
	v := 1.0
	for x >= 1 {
		v *= 10
		x--
	}
	for f := x; f > 0; f -= 1.0 / 16 {
		v *= 1.1547819846894583 // 10^(1/16)
	}
	return v
}

// TestHistSmallExact pins that the sub-64ns region is lossless: quantiles
// of small samples are exact, not approximations.
func TestHistSmallExact(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 50; v++ {
		h.Record(time.Duration(v))
	}
	if got := h.Percentile(50); got != 25 {
		t.Fatalf("p50 = %v, want 25ns exactly", got)
	}
	if got := h.Percentile(100); got != 50 {
		t.Fatalf("p100 = %v, want 50ns exactly", got)
	}
}

// TestHistNegativeClamps pins that negative durations record as zero
// rather than corrupting the layout.
func TestHistNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * time.Millisecond)
	if h.Count() != 1 || h.Min() != 0 || h.Percentile(100) != 0 {
		t.Fatalf("negative sample recorded as count=%d min=%v p100=%v", h.Count(), h.Min(), h.Percentile(100))
	}
}

// TestHistRecordDoesNotAllocate gates the zero-allocation record path.
func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := NewHistogram()
	v := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 977 * time.Nanosecond
	}); n != 0 {
		t.Fatalf("Record allocates %.1f objects per call", n)
	}
}

// TestHistEachBucketCumulates pins that EachBucket walks non-empty buckets
// in value order and accounts for every sample.
func TestHistEachBucketCumulates(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	var total uint64
	last := time.Duration(-1)
	h.EachBucket(func(lo, hi time.Duration, count uint64) {
		if lo <= last {
			t.Fatalf("bucket order violated: lo %v after %v", lo, last)
		}
		if hi <= lo {
			t.Fatalf("degenerate bucket [%v,%v)", lo, hi)
		}
		last = lo
		total += count
	})
	if total != h.Count() {
		t.Fatalf("buckets hold %d samples, recorded %d", total, h.Count())
	}
}
