// Package analysis is the fabric's static-analysis suite: three analyzers
// that machine-check the contracts the rest of the repository only
// enforces at runtime — determinism of trace-affecting code (DESIGN.md
// §6), the pooled-frame borrow/Retain ownership contract (§3) and the
// zero-allocation hot-path budget (§11). See DESIGN.md §14 for each
// analyzer's exact contract and the suppression-comment grammar. (The
// strict Spec codec rule for registry extensions, §9, needs no analyzer:
// topo.Register owns the one decode and checks the config type itself.)
//
// The package deliberately reimplements the small slice of the
// golang.org/x/tools/go/analysis surface it needs (Analyzer, Pass,
// Diagnostic) on the standard library alone: the toolchain image builds
// hermetically, and the suite must be runnable anywhere the repo
// compiles — `go vet -vettool=$(fabricvet)` in CI, `go test ./...` via
// the tree gate in tree_test.go, and standalone `fabricvet ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check, shaped like
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework without touching the analyzer bodies.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph contract statement shown by -help.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, plus the Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	suppressions map[string]map[int][]suppression // filename → line → comments
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// PkgBase returns the last element of the package's import path — the
// key the analyzers scope themselves by, so the analysistest fixture
// packages (import path "sim", "netsim", ...) exercise exactly the same
// matching as the real tree ("repro/internal/sim").
func (p *Pass) PkgBase() string {
	path := p.Pkg.Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsTestFile reports whether pos is inside a _test.go file. The
// contracts guard shipped fabric code; tests are covered by the runtime
// gates (differential traces, AllocsPerRun, the race suite) and freely
// use wall clocks and goroutines.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run executes the analyzers over pkgs and returns every diagnostic,
// sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Pos:      token.NoPos,
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
		sortDiags(pkg.Fset, diags)
	}
	return diags
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// All returns the full fabricvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		FrameOwnershipAnalyzer,
		HotPathAnalyzer,
	}
}

// --- small shared AST/type helpers -------------------------------------

// calleeObj resolves a call expression to the types.Object of its callee
// (a *types.Func for both plain calls and method calls), or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name,
// matching pkgPath by full path ("time") — used for std packages.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isFramePtr reports whether t is *Frame from a package whose base name
// is netsim (the real repro/internal/netsim or a fixture stand-in).
func isFramePtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "Frame" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "netsim" || strings.HasSuffix(path, "/netsim")
}

// enclosingFuncDoc finds the doc comment of the function declaration a
// walk is currently inside; used by the hotpath annotation lookup.
func funcHasMarker(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// insidePanicArg reports whether node lies inside an argument of a
// panic(...) call within body. Allocation on a failing path that ends
// the process is not a hot-path violation: the panic formats once and
// dies, so fmt/concat there is deliberate and free at steady state.
func panicArgRanges(body ast.Node) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			for _, arg := range call.Args {
				ranges = append(ranges, [2]token.Pos{arg.Pos(), arg.End()})
			}
		}
		return true
	})
	return ranges
}

func inRanges(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}
