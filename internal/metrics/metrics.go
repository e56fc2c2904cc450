// Package metrics collects and renders the measurements the experiments
// report: latency distributions, time series (the demo UI's "graphs",
// rendered as ASCII), counters, and aligned-text/CSV tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Distribution summarizes a set of duration samples.
type Distribution struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (d *Distribution) Add(v time.Duration) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of samples.
func (d *Distribution) Count() int { return len(d.samples) }

// Min returns the smallest sample, or 0 with no samples.
func (d *Distribution) Min() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	return d.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (d *Distribution) Max() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	return d.samples[len(d.samples)-1]
}

// Mean returns the arithmetic mean.
func (d *Distribution) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.samples {
		sum += v
	}
	return sum / time.Duration(len(d.samples))
}

// Percentile returns the p-th percentile (0 < p ≤ 100) by
// nearest-rank.
func (d *Distribution) Percentile(p float64) time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	d.sortSamples()
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	return d.samples[rank-1]
}

func (d *Distribution) sortSamples() {
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
}

// String renders a one-line summary.
func (d *Distribution) String() string {
	if d.Count() == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d min=%v mean=%v p50=%v p99=%v max=%v",
		d.Count(), d.Min(), d.Mean(), d.Percentile(50), d.Percentile(99), d.Max())
}

// Point is one time-series observation.
type Point struct {
	At    time.Duration // virtual time
	Value float64
}

// Series is an append-only time series (ping RTTs over time, goodput per
// bucket, ...).
type Series struct {
	Name   string
	Unit   string
	points []Point
}

// NewSeries creates a named series; unit is a display label ("µs",
// "Mb/s").
func NewSeries(name, unit string) *Series { return &Series{Name: name, Unit: unit} }

// Add appends an observation. Timestamps must not decrease.
func (s *Series) Add(at time.Duration, v float64) {
	if n := len(s.points); n > 0 && s.points[n-1].At > at {
		panic("metrics: series timestamps must not decrease")
	}
	s.points = append(s.points, Point{At: at, Value: v})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// Mean returns the mean value of the series.
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.points {
		sum += p.Value
	}
	return sum / float64(len(s.points))
}

// Max returns the largest value in the series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.points {
		if p.Value > m {
			m = p.Value
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// ASCII renders the series as a fixed-height terminal chart — the
// stand-in for the demo UI's latency graphs.
func (s *Series) ASCII(width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	if len(s.points) == 0 {
		return fmt.Sprintf("%s: (empty)\n", s.Name)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range s.points {
		lo = math.Min(lo, p.Value)
		hi = math.Max(hi, p.Value)
	}
	if hi == lo {
		hi = lo + 1
	}
	// Downsample/bucket points onto the width.
	cols := make([]float64, width)
	filled := make([]bool, width)
	for i, p := range s.points {
		c := i * width / len(s.points)
		if !filled[c] || p.Value > cols[c] {
			cols[c], filled[c] = p.Value, true
		}
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c := 0; c < width; c++ {
		if !filled[c] {
			continue
		}
		level := int((cols[c] - lo) / (hi - lo) * float64(height-1))
		row := height - 1 - level
		grid[row][c] = '*'
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]  max=%.3g min=%.3g\n", s.Name, s.Unit, hi, lo)
	for _, row := range grid {
		sb.WriteString("  |")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteString("  +" + strings.Repeat("-", width) + "\n")
	return sb.String()
}

// Jain computes Jain's fairness index of the values: 1 means perfectly
// even, 1/n means maximally concentrated. Used by the load-distribution
// experiment (T2).
func Jain(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1 // all zeros: degenerate but "even"
	}
	return sum * sum / (float64(len(values)) * sumSq)
}
