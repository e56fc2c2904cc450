package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is an HDR-style latency histogram: a fixed log-linear bucket
// layout covering every non-negative duration with bounded relative error,
// a zero-allocation record path, and deterministic merge. It trades the
// exact quantiles of Distribution for O(1) memory under unbounded sample
// streams — the long-running daemon regime, where keeping every RTT of an
// hours-long soak is not an option.
//
// Layout: values below 2^histSubBits ns land in exact width-1 buckets;
// above that, each power-of-two octave [2^e, 2^(e+1)) splits into
// 2^histSubBits equal sub-buckets, so a bucket's width is always at most
// value/2^histSubBits and every quantile is overestimated by strictly
// less than 2^-histSubBits (≈1.6%) relative. The layout is a pure function
// of the value — no rescaling, no allocation, no data-dependent state —
// which is what makes Merge a plain counter sum and quantiles identical
// regardless of arrival or merge order.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	// histSubBits fixes the precision: 2^6 = 64 sub-buckets per octave.
	histSubBits = 6
	histSubCnt  = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: 64 exact
	// buckets plus 64 sub-buckets for each octave e = 6..62 (int64
	// durations never reach octave 63).
	histBuckets = histSubCnt + (63-histSubBits)*histSubCnt
)

// NewHistogram returns an empty histogram. The zero value is also ready to
// use; the constructor exists for the idiomatic pointer spelling.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSubCnt {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e ≤ v < 2^(e+1), e ≥ histSubBits
	sub := (v - 1<<e) >> (e - histSubBits)
	return (e-histSubBits)*histSubCnt + histSubCnt + int(sub)
}

// histBounds returns bucket i's half-open value range [lo, hi).
func histBounds(i int) (lo, hi int64) {
	if i < histSubCnt {
		return int64(i), int64(i) + 1
	}
	e := i/histSubCnt + histSubBits - 1
	sub := int64(i % histSubCnt)
	width := int64(1) << (e - histSubBits)
	lo = 1<<e + sub*width
	return lo, lo + width
}

// Record adds one sample. Negative durations clamp to zero. The path is
// allocation-free (gated by a test) so per-frame recording is safe on the
// hot path.
func (h *Histogram) Record(v time.Duration) {
	n := int64(v)
	if n < 0 {
		n = 0
	}
	h.counts[histIndex(n)]++
	if h.count == 0 || n < h.min {
		h.min = n
	}
	if n > h.max {
		h.max = n
	}
	h.count++
	h.sum += n
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Min returns the smallest recorded sample exactly, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded sample exactly, or 0 when empty.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the arithmetic mean of the exact sample sum.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Percentile returns the p-th percentile (0 < p ≤ 100) by nearest rank,
// reported as the highest value of the rank's bucket — an overestimate by
// strictly less than 2^-histSubBits relative (and exact below 64ns, where
// buckets have width 1). The rank rule matches Distribution.Percentile,
// so the two agree within the bucket error on identical samples.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			_, hi := histBounds(i)
			if hi-1 > h.max {
				return time.Duration(h.max)
			}
			return time.Duration(hi - 1)
		}
	}
	return time.Duration(h.max)
}

// EachBucket calls fn for every non-empty bucket in value order with the
// bucket's half-open range and count — the iteration a cumulative
// ("le"-labelled) text exposition walks.
func (h *Histogram) EachBucket(fn func(lo, hi time.Duration, count uint64)) {
	for i, c := range h.counts {
		if c != 0 {
			lo, hi := histBounds(i)
			fn(time.Duration(lo), time.Duration(hi), c)
		}
	}
}
