package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAnalyzer guards the zero-allocation dataplane (DESIGN.md §3,
// §11). Functions annotated with a `//fabric:hotpath` doc-comment line
// — the batched window drain, frame forwarding, the timer wheel and the
// outbox exchange, i.e. exactly the paths the AllocsPerRun gates
// measure — are checked for the allocation constructs that most often
// sneak past review:
//
//   - func literals (closures allocate when they capture);
//   - calls into fmt (every fmt call allocates its argument slice);
//   - string concatenation and string<->[]byte conversions;
//   - append whose destination is a slice declared locally in the
//     function (a reused buffer lives on the receiver or package — a
//     fresh local grows on every call);
//   - implicit interface conversions of non-pointer values at call
//     boundaries (boxing allocates unless the value is pointer-shaped).
//
// Arguments of panic(...) are exempt: a dying process may format its
// last words. There is no other exception: a function that must
// allocate is not a hot path. The analyzer is a static screen in front
// of the runtime gates, not a replacement: the gates measure, this
// names the culprit at compile time.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Run:  runHotPath,
}

// HotPathMarker is the annotation that opts a function into the check.
const HotPathMarker = "//fabric:hotpath"

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcHasMarker(fn, HotPathMarker) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	panicRanges := panicArgRanges(fn.Body)
	exempt := func(pos token.Pos) bool { return inRanges(panicRanges, pos) }

	// Local slice variables declared in this function: appends to them
	// grow a fresh backing array per call instead of reusing a buffer.
	localSlices := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							if _, isSlice := types.Unalias(obj.Type()).Underlying().(*types.Slice); isSlice {
								localSlices[obj] = true
							}
						}
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								if _, isSlice := types.Unalias(obj.Type()).Underlying().(*types.Slice); isSlice {
									localSlices[obj] = true
								}
							}
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if exempt(n.Pos()) {
				return false
			}
			pass.Reportf(n.Pos(),
				"closure in //fabric:hotpath function %s: capturing func literals allocate; "+
					"use a Runner object or hoist the closure",
				fn.Name.Name)
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !exempt(n.Pos()) {
				if tv, ok := pass.TypesInfo.Types[n]; ok {
					if basic, ok := types.Unalias(tv.Type).Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(),
							"string concatenation in //fabric:hotpath function %s allocates", fn.Name.Name)
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, localSlices, exempt)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, localSlices map[types.Object]bool, exempt func(token.Pos) bool) {
	if exempt(call.Pos()) {
		return
	}
	// Conversions: string(b), []byte(s).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := types.Unalias(tv.Type).Underlying()
		if argTV, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
			from := types.Unalias(argTV.Type).Underlying()
			if isStringByteConv(from, to) {
				pass.Reportf(call.Pos(),
					"string<->[]byte conversion in //fabric:hotpath function %s copies and allocates", fn.Name.Name)
			}
			if _, isIface := to.(*types.Interface); isIface {
				if !pointerShaped(from) && !isInterface(from) {
					pass.Reportf(call.Pos(),
						"interface conversion of a non-pointer value in //fabric:hotpath function %s boxes (allocates)",
						fn.Name.Name)
				}
			}
		}
		return
	}

	obj := calleeObj(pass.TypesInfo, call)
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s in //fabric:hotpath function %s allocates (argument boxing + formatting)",
			obj.Name(), fn.Name.Name)
		return
	}

	// append to a function-local slice.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				var dobj types.Object = pass.TypesInfo.Uses[dst]
				if dobj == nil {
					dobj = pass.TypesInfo.Defs[dst]
				}
				if dobj != nil && localSlices[dobj] {
					pass.Reportf(call.Pos(),
						"append to function-local slice %s in //fabric:hotpath function %s: the buffer is not reused "+
							"across calls, so steady-state growth allocates — hoist it to the receiver or a pool",
						dst.Name, fn.Name.Name)
				}
			}
		}
		return
	}

	// Implicit boxing at call boundaries: a non-pointer concrete value
	// passed where an interface is expected.
	sigTV, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := types.Unalias(sigTV.Type).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := types.Unalias(params.At(params.Len() - 1).Type()).Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := types.Unalias(pt).Underlying().(*types.Interface); !isIface {
			continue
		}
		argTV, ok := pass.TypesInfo.Types[arg]
		if !ok || argTV.Type == nil {
			continue
		}
		at := types.Unalias(argTV.Type).Underlying()
		if isInterface(at) || pointerShaped(at) || argTV.IsNil() {
			continue
		}
		if exempt(arg.Pos()) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"non-pointer value boxed into interface parameter in //fabric:hotpath function %s (allocates); "+
				"pass a pointer or restructure the call", fn.Name.Name)
	}
}

func isStringByteConv(from, to types.Type) bool {
	return (isString(from) && isByteSlice(to)) || (isByteSlice(from) && isString(to))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isInterface(t types.Type) bool {
	_, ok := t.(*types.Interface)
	return ok
}

// pointerShaped reports whether boxing t into an interface stores the
// value directly in the interface word (no allocation): pointers,
// channels, maps, funcs and unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
