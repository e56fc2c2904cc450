package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// newInfo allocates the types.Info maps every analyzer relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load lists, parses and type-checks the packages matching patterns
// (relative to dir), resolving imports through the build cache's export
// data — `go list -export` compiles dependencies as needed, so the
// loader works wherever `go build` does, with no extra toolchain
// dependencies. Test files are excluded by construction (GoFiles only):
// the contracts guard shipped code, and tests are held by the runtime
// gates (differential traces, AllocsPerRun, the race suite).
func Load(dir string, patterns ...string) ([]*Package, error) {
	exports, targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, gf := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", gf, err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp, FakeImportC: true}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{PkgPath: t.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info})
	}
	return pkgs, nil
}

// goList runs `go list -export -deps` and splits the result into the
// export-data index (every package in the closure) and the analysis
// targets (the packages the patterns named directly).
func goList(dir string, patterns []string) (map[string]string, []listedPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	exports := map[string]string{}
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list decode: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return exports, targets, nil
}

// exportImporter resolves imports from a path→export-file map via the
// standard library's gc export-data reader.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// moduleExports returns the export-data index for the whole module
// rooted at dir (`./...` plus its std dependencies). The fixture loader
// uses it so analysistest packages may import any std or repro package
// the repository itself uses.
func moduleExports(dir string) (map[string]string, error) {
	exports, _, err := goList(dir, []string{"./..."})
	return exports, err
}

// LoadFixtureDir parses and type-checks one analysistest fixture package
// rooted at srcRoot/<path>, GOPATH-style: imports resolve first against
// sibling fixture directories under srcRoot (type-checked from source,
// recursively), then against the surrounding module's build closure.
func LoadFixtureDir(moduleDir, srcRoot, path string) (*Package, error) {
	exports, err := moduleExports(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	cache := map[string]*types.Package{}
	var imp importerFunc
	fallback := exportImporter(fset, exports)
	imp = func(ipath string) (*types.Package, error) {
		if tp, ok := cache[ipath]; ok {
			return tp, nil
		}
		if fixDir := filepath.Join(srcRoot, ipath); dirExists(fixDir) {
			pkg, err := checkFixture(fset, imp, ipath, fixDir)
			if err != nil {
				return nil, err
			}
			cache[ipath] = pkg.Types
			return pkg.Types, nil
		}
		tp, err := fallback.Import(ipath)
		if err != nil {
			return nil, err
		}
		cache[ipath] = tp
		return tp, nil
	}
	return checkFixture(fset, imp, path, filepath.Join(srcRoot, path))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// checkFixture parses every .go file in dir and type-checks the package
// under the given import path.
func checkFixture(fset *token.FileSet, imp types.Importer, ipath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse fixture %s: %w", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", ipath, dir)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(ipath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", ipath, err)
	}
	return &Package{PkgPath: ipath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
