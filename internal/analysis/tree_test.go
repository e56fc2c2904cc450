package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestTreeIsClean runs every analyzer over every package of the module
// and requires zero diagnostics: the contracts hold on the shipped tree,
// and every suppression carries a justification. It is the analyzers'
// one driver, so it runs under -short too.
func TestTreeIsClean(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags := analysis.Run(analysis.All(), pkgs)
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		rel, relErr := filepath.Rel(root, pos.Filename)
		if relErr != nil {
			rel = pos.Filename
		}
		t.Errorf("%s:%d:%d: [%s] %s", rel, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
}

// moduleRoot returns the directory holding the repository's go.mod.
func moduleRoot(t *testing.T) string {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for root := wd; ; {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			return root
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatalf("no go.mod above %s", wd)
		}
		root = parent
	}
}

// designCite matches a DESIGN.md section citation, including one whose
// section number wraps onto the next comment line.
var designCite = regexp.MustCompile(`DESIGN\.md\s*(?://\s*)?§(\d+)`)

// TestDesignCitationsResolve holds the code's pointers into DESIGN.md to
// the document: every "DESIGN.md §N" in a Go file of the tree names an
// existing "## N." heading, so renumbering or deleting a section fails
// here instead of leaving comments that point nowhere.
func TestDesignCitationsResolve(t *testing.T) {
	root := moduleRoot(t)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			if n, _, ok := strings.Cut(rest, "."); ok {
				headings[n] = true
			}
		}
	}
	cited := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range designCite.FindAllStringSubmatch(string(src), -1) {
			cited[m[1]] = true
			if !headings[m[1]] {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", rel, m[1], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cited) == 0 {
		t.Fatal("no DESIGN.md citation found: the pattern no longer matches the tree")
	}
	t.Logf("%d cited sections resolve", len(cited))
}
