package main

import (
	"math"
	"sort"
	"time"
)

// quantum is one timed call into the system: how long it took and how
// many ops completed in it.
type quantum struct {
	wall time.Duration
	ops  int64
}

// warmShare of every timed phase is discarded before any statistic: the
// first of eleven equal slices, in which caches and pools fill.
const warmShare = 11

// fastQuantile is where a batch workload's throughput is read on the
// distribution of its quanta's time per op: the 2nd percentile, which has
// 20 quanta beyond it from 1000 quanta up (an 18 s run has 3300 to 8400).
//
// Every quantum of a batch workload is the same work, so the spread of
// their times is the host's doing, and on a shared host that only ever adds
// time. The median quantum follows the host: on wide_unicast it was 31 %
// slower in a busy quarter of an hour than in a quiet one, same commit, and
// the 2nd percentile 6 % (README, ruling 9).
const fastQuantile = 0.02

// seconds converts the --seconds flag.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail is the guide's "highest percentile that has at least ten samples
// beyond it", capped at p99: the nearest-rank p99 from 1100 samples up, the
// 11th-largest sample from 40 up (p75 or higher). Fewer samples support no
// tail percentile; the largest is reported.
func tail(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n >= 1100:
		return sorted[int(math.Ceil(0.99*float64(n)))-1]
	case n >= 40:
		return sorted[n-11]
	default:
		return sorted[n-1]
	}
}

// batchRate is a batch workload's ops_per_sec: the first eleventh of the
// timed phase is discarded as warm, and the metric is one op per the
// fastQuantile of the remaining quanta's wall time per op — the rate the
// program sustains while the host leaves it alone.
func batchRate(qs []quantum) float64 {
	per := perOpMicros(qs[len(qs)/warmShare:])
	if len(per) == 0 {
		return 0
	}
	sort.Float64s(per)
	return 1e6 / per[int(fastQuantile*float64(len(per)))]
}

// perOpMicros is each quantum's wall time per op, in µs.
func perOpMicros(qs []quantum) []float64 {
	per := make([]float64, 0, len(qs))
	for _, q := range qs {
		if q.ops > 0 {
			per = append(per, float64(q.wall.Nanoseconds())/1e3/float64(q.ops))
		}
	}
	return per
}

// opTimeMetrics writes the median and the tail of per-op wall times (µs).
// For a batch workload an op's time is its timed call's wall time divided
// by the ops the call completed — the finest grain at which a caller of the
// simulator can observe service time. These are traced-run readings taken on
// the untraced segment, not gated end-to-end metrics: over six ten-run
// batches on the build host the tail's quartile spread passed 25 % on three
// of 27 workload-batches and the median's on two, where the rate's never
// did (README, ruling 8).
func opTimeMetrics(o *outcome, micros []float64) {
	sort.Float64s(micros)
	o.metrics["op_time_p50_us"] = median(micros)
	o.metrics["op_time_tail_us"] = tail(micros)
}

// nsPerOp is the plain mean over quanta, for traced-vs-untraced ratios.
func nsPerOp(qs []quantum) float64 {
	var wall time.Duration
	var ops int64
	for _, q := range qs {
		wall += q.wall
		ops += q.ops
	}
	if ops == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / float64(ops)
}

// overheadPct is how much slower traced work ran than the same work
// untraced, in percent.
func overheadPct(untracedNS, tracedNS float64) float64 {
	if untracedNS <= 0 {
		return 0
	}
	return (tracedNS/untracedNS - 1) * 100
}

// setupFloor is how long a run keeps repeating a cheap set-up: a
// millisecond-sized set-up timed a handful of times reads the process's
// cold start, not the set-up.
const setupFloor = 250 * time.Millisecond

// medianSetup runs setup at least reps times, and until setupFloor has
// been spent (but no more than 100·reps times), and returns the median
// wall time and the last value built, which the caller measures on.
// Earlier values are handed to discard so their resources are released
// before the next rep.
func medianSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	begin := time.Now()
	for i := 0; i < reps || (time.Since(begin) < setupFloor && i < 100*reps); i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
