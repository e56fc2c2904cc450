package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSpecRefusalExitsTwo builds fabricserve and boots it on specs it
// must refuse, and on a listen address it cannot parse: each is a usage
// error (exit 2) with the refusal on stderr, and nothing is served.
func TestSpecRefusalExitsTwo(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fabricserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/fabricserve").CombinedOutput(); err != nil {
		t.Fatalf("go build repro/cmd/fabricserve: %v\n%s", err, out)
	}
	sock := "unix:" + filepath.Join(dir, "fs.sock")
	cases := []struct{ name, spec, listen, want string }{
		{"workload kind", `{"topology":{"family":"ring","n":3},"workload":{"kind":"ping"}}`, sock, `the spec names workload kind "ping"`},
		{"bad value", `{"topology":{"family":"random-regular","n":7}}`, sock, "spec: topology."},
		{"unknown key", `{"topology":{"family":"ring","n":3},"colour":"red"}`, sock, `unknown field "colour"`},
		{"bad listen address", `{"topology":{"family":"ring","n":3}}`, "fs.sock", `-listen: address "fs.sock" must be`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := filepath.Join(dir, "spec.json")
			if err := os.WriteFile(spec, []byte(c.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			// A daemon that boots instead of refusing is killed, not waited on.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-spec", spec, "-listen", c.listen)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("fabricserve -spec %s: %v, want exit status 2\n%s", c.spec, err, stderr.Bytes())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("fabricserve -spec %s: stderr %q, want the refusal %q", c.spec, stderr.Bytes(), c.want)
			}
		})
	}
}
