// Package analysistest runs an analyzer over a fixture package under
// testdata/src and checks its diagnostics against `// want "regexp"`
// comments.
//
// A want comment names, by position, every diagnostic expected on its
// line; multiple quoted regexps mean multiple diagnostics. Every
// diagnostic must be wanted and every want must be matched — unmatched
// in either direction fails the test.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture package rooted at testdata/src/<path> (relative
// to the calling test's directory) and runs the analyzers over it,
// comparing diagnostics to want comments.
func Run(t *testing.T, path string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir := findModuleRoot(t, wd)
	srcRoot := filepath.Join(wd, "testdata", "src")
	pkg, err := analysis.LoadFixtureDir(moduleDir, srcRoot, path)
	if err != nil {
		t.Fatalf("load fixture %s: %v", path, err)
	}

	diags := analysis.Run(analyzers, []*analysis.Package{pkg})
	wants := collectWants(t, pkg)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d:%d: unexpected diagnostic [%s]: %s",
				filepath.Base(pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants parses every `// want "re" ["re"...]` comment in the
// fixture. A want comment refers to its own line.
func collectWants(t *testing.T, pkg *analysis.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				qs := quotedRE.FindAllString(m[1], -1)
				if len(qs) == 0 {
					t.Fatalf("%s:%d: malformed want comment: %s", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range qs {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// Diagnostics loads and runs like Run but returns the raw diagnostics,
// for tests asserting on messages the want grammar cannot express (e.g.
// malformed suppression comments, which cannot share a line with a want
// comment).
func Diagnostics(t *testing.T, path string, analyzers ...*analysis.Analyzer) []string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir := findModuleRoot(t, wd)
	pkg, err := analysis.LoadFixtureDir(moduleDir, filepath.Join(wd, "testdata", "src"), path)
	if err != nil {
		t.Fatalf("load fixture %s: %v", path, err)
	}
	var out []string
	for _, d := range analysis.Run(analyzers, []*analysis.Package{pkg}) {
		pos := pkg.Fset.Position(d.Pos)
		out = append(out, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message))
	}
	return out
}

func findModuleRoot(t *testing.T, dir string) string {
	t.Helper()
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}
