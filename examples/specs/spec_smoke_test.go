package specs_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	// The cmds run as subprocesses, which `go test`'s result cache cannot
	// see; linking the SDK they are shells over is what makes a change
	// under pkg/ or internal/ re-run the goldens.
	_ "repro/pkg/fabric"
)

// TestSpecSmoke is the spec-path determinism gate: every cmd runs against
// its golden spec fixture (<cmd>.json in this directory) and must reproduce
// its committed golden output byte for byte — trace fingerprint line
// included. Same seed ⇒ same fingerprint, now across the Spec path too —
// and, for fabricbench, at -shards 4 as well: the fingerprint may not move
// with the shard count. The allpath fixture is the All-Path comparison's
// one pin: its table plus the folded trace of all nine fabrics. This test
// is the goldens' one gate; CI reaches it through `go test ./...`.
//
// Regenerate a golden after an intentional behavior change with e.g.
// (from the repository root)
//
//	go run ./cmd/fabricbench -spec examples/specs/fabricbench.json \
//	    > examples/specs/fabricbench.golden
//
// (scenario pins -j 2: its summary line reports the worker count).
func TestSpecSmoke(t *testing.T) {
	cases := []struct {
		cmd  string
		spec string // fixture basename; defaults to the cmd name
		name string // subtest name; defaults to the fixture basename
		args []string
	}{
		{cmd: "fabricbench"},
		{cmd: "fabricbench", name: "fabricbench-shards4", args: []string{"-shards", "4"}},
		{cmd: "fabricbench", spec: "allpath"},
		{cmd: "fabricbench", spec: "allpath", name: "allpath-shards4", args: []string{"-shards", "4"}},
		// T1–T6, the paper tables: every number EXPERIMENTS.md quotes
		// for them is a line here.
		{cmd: "fabricbench", spec: "tables"},
		{cmd: "scenario", args: []string{"-j", "2"}},
		{cmd: "arppath-sim"},
		// The Figure 1 walkthrough examples/quickstart drives through the
		// SDK, as a spec.
		{cmd: "arppath-sim", spec: "quickstart"},
		// The paper's two demos and the All-Path variants run through the
		// same simulator shell: the Runner owns the workload kinds and the
		// registry selects the protocol, not the cmd.
		{cmd: "arppath-sim", spec: "arpvstp"},
		{cmd: "arppath-sim", spec: "pathrepair"},
		{cmd: "arppath-sim", spec: "flowpath"},
		{cmd: "arppath-sim", spec: "tcppath"},
	}
	for _, c := range cases {
		c := c
		if c.spec == "" {
			c.spec = c.cmd
		}
		if c.name == "" {
			c.name = c.spec
		}
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(c.spec + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			args := append([]string{"run", "repro/cmd/" + c.cmd, "-spec", c.spec + ".json"}, c.args...)
			out, err := exec.Command("go", args...).Output()
			if err != nil {
				t.Fatalf("go %v: %v", args, err)
			}
			if string(out) != string(golden) {
				t.Fatalf("output diverged from examples/specs/%s.golden.\ngot:\n%s\nwant:\n%s",
					c.spec, out, golden)
			}
		})
	}
	// -bench-out on an experiment with no JSON artifact is a usage error,
	// not a silent no-op.
	t.Run("bench-out-without-artifact", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.json")
		_, err := exec.Command("go", "run", "repro/cmd/fabricbench", "-exp", "load", "-bench-out", path).Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("fabricbench -exp load -bench-out: err = %v, want a nonzero exit", err)
		}
		// `go run` reports the child's status on its own stderr.
		if msg := string(exit.Stderr); !strings.Contains(msg, "-exp load has no JSON artifact") || !strings.Contains(msg, "exit status 2") {
			t.Fatalf("stderr = %q, want the experiment named and exit status 2", msg)
		}
	})
}
