// Command fabricvet runs the fabric's static-analysis suite
// (internal/analysis: determinism, frameownership, hotpath — see
// DESIGN.md §14).
//
// Two modes share the analyzers:
//
//	fabricvet ./...                     # standalone: loads packages itself
//	go vet -vettool=$(pwd)/fabricvet ./...   # unitchecker: driven by cmd/go
//
// In vettool mode cmd/go invokes the binary once per package with a
// vet.cfg describing the unit (files, import map, export data), probes
// `-V=full` for a version to key its action cache, and expects
// diagnostics on stderr with exit status 2. Standalone mode mirrors the
// same output contract so CI can parse one format from either entry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// version keys cmd/go's vet action cache. Bump when analyzer behavior
// changes, or cached clean verdicts from the previous binary survive.
const version = "v2"

func main() {
	log := func(err error) {
		fmt.Fprintf(os.Stderr, "fabricvet: %v\n", err)
		os.Exit(1)
	}

	args := os.Args[1:]
	// cmd/go probes the tool's identity before first use.
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "-V") {
		fmt.Printf("fabricvet version %s\n", version)
		return
	}
	// cmd/go asks for supported flags when the user passes vet flags.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Unitchecker mode: the last argument is the unit's config file.
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		if err := runUnit(args[n-1]); err != nil {
			log(err)
		}
		return
	}

	// Standalone mode.
	fs := flag.NewFlagSet("fabricvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fabricvet [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	_ = fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		log(err)
	}
	diags := analysis.Run(analysis.All(), pkgs)
	if len(diags) > 0 {
		printDiags(pkgs[0].Fset, diags)
		os.Exit(2)
	}
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
}

// vetConfig is the JSON unit description cmd/go writes next to each
// package's object directory (see cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool

	ModulePath    string
	ModuleVersion string
	GoVersion     string

	VetxOnly    bool
	VetxOutput  string
	PackageVetx map[string]string

	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) error {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parse %s: %w", cfgPath, err)
	}

	// cmd/go requires the facts output to exist even on success; the
	// suite computes no cross-package facts, so an empty file suffices.
	writeVetx := func() error {
		if cfg.VetxOutput == "" {
			return nil
		}
		return os.WriteFile(cfg.VetxOutput, []byte{}, 0o666)
	}
	if cfg.VetxOnly {
		return writeVetx()
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, gf := range cfg.GoFiles {
		if !filepath.IsAbs(gf) {
			gf = filepath.Join(cfg.Dir, gf)
		}
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx()
			}
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return writeVetx()
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tconf := types.Config{Importer: imp, FakeImportC: true}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx()
		}
		return fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}

	pkg := &analysis.Package{PkgPath: cfg.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags := analysis.Run(analysis.All(), []*analysis.Package{pkg})
	if err := writeVetx(); err != nil {
		return err
	}
	if len(diags) > 0 {
		printDiags(fset, diags)
		os.Exit(2)
	}
	return nil
}
