package specs_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	// The simulator runs as a subprocess, which `go test`'s result cache
	// cannot see; linking the SDK it is a shell over is what makes a
	// change under pkg/ or internal/ re-run the goldens.
	_ "repro/pkg/fabric"
)

// sim is the arppath-sim binary TestMain builds once for every test here.
var sim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "arppath-sim")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sim = filepath.Join(dir, "arppath-sim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", sim, "repro/cmd/arppath-sim").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build repro/cmd/arppath-sim: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// fixtureCopy writes the fixture <name>.json, passed through edit, to a
// temporary file and returns its path.
func fixtureCopy(t *testing.T, name string, edit func(spec map[string]any)) string {
	t.Helper()
	raw, err := os.ReadFile(name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	edit(spec)
	return writeSpec(t, name, spec)
}

// writeSpec writes a spec document to a temporary file and returns its
// path.
func writeSpec(t *testing.T, name string, spec any) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecSmoke is the spec-path determinism gate: arppath-sim runs every
// golden spec fixture (<name>.json in this directory) and must reproduce
// its committed golden output byte for byte — trace fingerprint line
// included. Same seed ⇒ same fingerprint, now across the Spec path too —
// and, for the properties and allpath fixtures, at "shards": 4 as well:
// the fingerprint may not move with the shard count. The allpath fixture
// is the All-Path comparison's one pin: its table plus the folded trace
// of all nine fabrics. This test is the goldens' one gate; CI reaches it
// through `go test ./...`.
//
// Regenerate a golden after an intentional behavior change with e.g.
// (from the repository root)
//
//	go run ./cmd/arppath-sim -spec examples/specs/fabricbench.json \
//	    > examples/specs/fabricbench.golden
//
// (the scenario fixture runs with -j 2: its summary line reports the
// worker count).
func TestSpecSmoke(t *testing.T) {
	cases := []struct {
		spec   string // fixture basename
		name   string // subtest name; defaults to the fixture basename
		shards int    // run a copy of the fixture at this shard count
		args   []string
	}{
		{spec: "fabricbench"},
		{spec: "fabricbench", name: "fabricbench-shards4", shards: 4},
		{spec: "allpath"},
		{spec: "allpath", name: "allpath-shards4", shards: 4},
		// T1–T6, the paper tables: every number EXPERIMENTS.md quotes
		// for them is a line here.
		{spec: "tables"},
		{spec: "scenario", args: []string{"-j", "2"}},
		{spec: "arppath-sim"},
		// Figure 1: the lock table, discovery time and confirmed path.
		{spec: "figure1"},
		// The Figure 1 walkthrough examples/quickstart drives through the
		// SDK, as a spec.
		{spec: "quickstart"},
		// The paper's two demos and the All-Path variants: the Runner
		// owns the workload kinds and the registry selects the protocol.
		{spec: "arpvstp"},
		{spec: "pathrepair"},
		{spec: "flowpath"},
		{spec: "tcppath"},
	}
	for _, c := range cases {
		if c.name == "" {
			c.name = c.spec
		}
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(c.spec + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			path := c.spec + ".json"
			if c.shards > 0 {
				path = fixtureCopy(t, c.spec, func(spec map[string]any) { spec["shards"] = c.shards })
			}
			args := append([]string{"-spec", path}, c.args...)
			out, err := exec.Command(sim, args...).Output()
			if err != nil {
				t.Fatalf("arppath-sim %v: %v", args, err)
			}
			if string(out) != string(golden) {
				t.Fatalf("output diverged from examples/specs/%s.golden.\ngot:\n%s\nwant:\n%s",
					c.spec, out, golden)
			}
		})
	}
	// -bench-out on a workload with no JSON artifact is a usage error,
	// not a silent no-op.
	t.Run("bench-out-without-artifact", func(t *testing.T) {
		spec := writeSpec(t, "load", map[string]any{"workload": map[string]any{"kind": "load"}})
		_, err := exec.Command(sim, "-spec", spec, "-bench-out", filepath.Join(t.TempDir(), "x.json")).Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("arppath-sim -bench-out on kind load: err = %v, want exit status 2", err)
		}
		if msg := string(exit.Stderr); !strings.Contains(msg, "workload kind load has no JSON artifact") {
			t.Fatalf("stderr = %q, want the workload kind named", msg)
		}
	})
}

// TestExitStatus pins arppath-sim's exit-status table: 0 on success, 1
// when the run finished but failed, 2 on a usage or spec error or any
// other error. A silent case is refused before anything runs: it prints
// nothing on stdout.
func TestExitStatus(t *testing.T) {
	cases := []struct {
		name   string
		spec   any // written to a temporary spec file; nil runs without -spec
		args   []string
		want   int
		silent bool
	}{
		{name: "bare-default", want: 0},
		{name: "bad-spec", spec: map[string]any{
			"topology": map[string]any{"family": "random-regular", "n": 7},
			"workload": map[string]any{"kind": "ping"},
		}, want: 2},
		// figure2 has no H1..Hn hosts for a traffic matrix.
		{name: "incomplete", spec: map[string]any{
			"topology": map[string]any{"family": "figure2"},
			"workload": map[string]any{"kind": "matrix"},
		}, want: 1},
		{name: "bench-out-without-artifact", spec: map[string]any{
			"workload": map[string]any{"kind": "ping", "pings": 1},
		}, args: []string{"-bench-out", "x.json"}, want: 2, silent: true},
		// T1 reads no link: the key is refused, not ignored.
		{name: "misplaced-key", spec: map[string]any{
			"link":     map[string]any{"rate_bps": 1},
			"workload": map[string]any{"kind": "properties"},
		}, want: 2, silent: true},
		// A negative seed draws T1's trial sizes like any other.
		{name: "negative-seed", spec: map[string]any{
			"seed":     -3,
			"workload": map[string]any{"kind": "properties"},
		}, want: 0},
		{name: "unexpected-argument", args: []string{"figure2"}, want: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var args []string
			if c.spec != nil {
				args = []string{"-spec", writeSpec(t, c.name, c.spec)}
			}
			cmd := exec.Command(sim, append(args, c.args...)...)
			cmd.Dir = t.TempDir()
			stdout, err := cmd.Output()
			got := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				got = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("arppath-sim %v: exit status %d, want %d", cmd.Args[1:], got, c.want)
			}
			if c.silent && len(stdout) > 0 {
				t.Fatalf("arppath-sim %v printed before it was refused:\n%s", cmd.Args[1:], stdout)
			}
		})
	}
}
