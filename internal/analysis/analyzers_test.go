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

// A suppression without a justification reports the comment itself and
// swallows the underlying diagnostic: one finding, not two.
func TestMalformedSuppression(t *testing.T) {
	diags := analysistest.Diagnostics(t, "suppress/sim", analysis.DeterminismAnalyzer)
	if len(diags) != 1 || !strings.Contains(diags[0], "requires a justification") {
		t.Fatalf("want exactly one malformed-suppression diagnostic, got %v", diags)
	}
}
