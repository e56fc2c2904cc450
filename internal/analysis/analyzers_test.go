package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "sim", analysis.DeterminismAnalyzer)
}

// The wall-clock rule holds in every package but serve, trace-affecting
// or not; the other three rules hold only in trace-affecting packages.
func TestDeterminismScope(t *testing.T) {
	for _, pkg := range []string{"tool", "serve"} {
		t.Run(pkg, func(t *testing.T) { analysistest.Run(t, pkg, analysis.DeterminismAnalyzer) })
	}
}

// No file may spawn goroutines without suppression, netsim/shard.go
// included.
func TestDeterminismNoBlessedFile(t *testing.T) {
	analysistest.Run(t, "netsim", analysis.DeterminismAnalyzer)
}

func TestFrameOwnership(t *testing.T) {
	analysistest.Run(t, "frameown", analysis.FrameOwnershipAnalyzer)
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "hotpath", analysis.HotPathAnalyzer)
}

// A suppression without a justification is reported, and still
// swallows the underlying diagnostic: one finding, not two.
func TestMalformedSuppression(t *testing.T) {
	diags := analysistest.Diagnostics(t, "suppress/sim", analysis.DeterminismAnalyzer)
	if len(diags) != 1 || !strings.Contains(diags[0], "requires a justification") {
		t.Fatalf("want exactly one malformed-suppression diagnostic, got %v", diags)
	}
}
