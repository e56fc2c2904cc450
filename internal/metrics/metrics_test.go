package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	if d.String() != "no samples" || d.Min() != 0 || d.Max() != 0 || d.Mean() != 0 {
		t.Fatal("empty distribution not zeroed")
	}
	for _, v := range []time.Duration{30, 10, 20} {
		d.Add(v * time.Millisecond)
	}
	if d.Count() != 3 || d.Min() != 10*time.Millisecond || d.Max() != 30*time.Millisecond {
		t.Fatalf("summary wrong: %s", d.String())
	}
	if d.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Percentile(50) != 20*time.Millisecond {
		t.Fatalf("p50 = %v", d.Percentile(50))
	}
	if d.Percentile(100) != 30*time.Millisecond {
		t.Fatalf("p100 = %v", d.Percentile(100))
	}
	if !strings.Contains(d.String(), "n=3") {
		t.Fatalf("String() = %q", d.String())
	}
}

func TestDistributionPercentileValidation(t *testing.T) {
	var d Distribution
	d.Add(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("percentile 0 accepted")
		}
	}()
	d.Percentile(0)
}

// Property: percentiles are monotone and bounded by min/max.
func TestQuickPercentilesMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var d Distribution
		for _, v := range raw {
			d.Add(time.Duration(v))
		}
		prev := time.Duration(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := d.Percentile(p)
			if v < prev || v < d.Min() || v > d.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("rtt", "µs")
	s.Add(0, 10)
	s.Add(time.Second, 30)
	s.Add(2*time.Second, 20)
	if s.Len() != 3 || s.Mean() != 20 || s.Max() != 30 {
		t.Fatalf("series stats: len=%d mean=%v max=%v", s.Len(), s.Mean(), s.Max())
	}
}

func TestSeriesRejectsTimeTravel(t *testing.T) {
	s := NewSeries("x", "")
	s.Add(time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing timestamp accepted")
		}
	}()
	s.Add(0, 2)
}

func TestSeriesASCII(t *testing.T) {
	s := NewSeries("latency", "µs")
	for i := 0; i < 40; i++ {
		v := 10.0
		if i >= 20 {
			v = 50.0
		}
		s.Add(time.Duration(i)*time.Second, v)
	}
	art := s.ASCII(40, 6)
	if !strings.Contains(art, "latency") || !strings.Contains(art, "*") {
		t.Fatalf("ASCII chart malformed:\n%s", art)
	}
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 8 { // header + 6 rows + axis
		t.Fatalf("chart has %d lines", len(lines))
	}
	empty := NewSeries("none", "")
	if !strings.Contains(empty.ASCII(10, 3), "empty") {
		t.Fatal("empty chart not labelled")
	}
	flat := NewSeries("flat", "")
	flat.Add(0, 5)
	if !strings.Contains(flat.ASCII(10, 3), "*") {
		t.Fatal("flat series not plotted")
	}
}

func TestSeriesMaxEmpty(t *testing.T) {
	if NewSeries("e", "").Max() != 0 {
		t.Fatal("empty Max != 0")
	}
}

func TestJain(t *testing.T) {
	if j := Jain([]float64{1, 1, 1, 1}); j != 1 {
		t.Fatalf("Jain(even) = %v", j)
	}
	if j := Jain([]float64{1, 0, 0, 0}); j != 0.25 {
		t.Fatalf("Jain(concentrated) = %v", j)
	}
	if Jain(nil) != 0 {
		t.Fatal("Jain(nil)")
	}
	if Jain([]float64{0, 0}) != 1 {
		t.Fatal("Jain(zeros)")
	}
}

// Property: Jain's index lies in [1/n, 1] for non-negative non-zero input.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		nonzero := false
		for i, v := range raw {
			vals[i] = float64(v)
			if v != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return Jain(vals) == 1
		}
		j := Jain(vals)
		return j >= 1/float64(len(vals))-1e-12 && j <= 1+1e-12
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Results", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta, the second", 2.5)
	if tb.Rows() != 2 || tb.Cell(0, 0) != "alpha" || tb.Cell(1, 1) != "2.5" {
		t.Fatal("cell accounting")
	}
	text := tb.String()
	if !strings.Contains(text, "Results") || !strings.Contains(text, "alpha") {
		t.Fatalf("text table:\n%s", text)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "\"beta, the second\"") {
		t.Fatalf("CSV quoting:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Fatalf("CSV header:\n%s", csv)
	}
}

func TestTableArityPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity accepted")
		}
	}()
	tb.AddRow(1)
}

func TestTableCSVQuoteEscaping(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(`say "hi"`)
	if !strings.Contains(tb.CSV(), `"say ""hi"""`) {
		t.Fatalf("CSV = %q", tb.CSV())
	}
}
