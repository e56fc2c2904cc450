package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FrameOwnershipAnalyzer enforces the pooled-frame borrow contract
// (DESIGN.md §3, netsim.Frame): a *netsim.Frame received as a function
// parameter is borrowed — valid only until the function returns. The
// analyzer checks every non-test function outside netsim itself that
// takes a *netsim.Frame parameter (OnFrame/HandleFrame handlers and the
// helpers they delegate to):
//
//   - the frame may not be stored into a field, slice element, map,
//     channel, or package variable, nor captured by a deferred or
//     scheduled closure, unless a Retain dominates the store — either
//     chained (`buf = append(buf, f.Retain())`, the idiomatic form) or
//     as a preceding statement;
//   - Retain/Release must balance per function body: a bare Retain
//     whose reference is neither stored nor Released before return
//     leaks a pooled buffer, and a Release without a dominating Retain
//     gives away the caller's reference — the classic recycled-buffer
//     stale read.
//
// The check is a lexical abstract interpretation (statements in source
// order carry an owned-reference count), which matches how the
// handlers are written. It has no suppression.
var FrameOwnershipAnalyzer = &Analyzer{
	Name: "frameownership",
	Run:  runFrameOwnership,
}

func runFrameOwnership(pass *Pass) error {
	if pass.PkgBase() == "netsim" {
		// netsim implements the contract; its delivery machinery owns
		// the references it releases.
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Type.Params == nil {
				continue
			}
			for _, field := range fn.Type.Params.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil || !isFramePtr(obj.Type()) {
						continue
					}
					checkBorrowedFrame(pass, fn, obj)
				}
			}
		}
	}
	return nil
}

// ownEvent is one ownership-relevant action on the borrowed frame, in
// source order.
type ownEvent struct {
	pos  token.Pos
	kind int // evRetain, evRetainStore, evStore, evRelease
	desc string
}

const (
	evRetain      = iota // bare f.Retain(): takes a reference this function must hand off
	evRetainStore        // f.Retain() chained into a store/argument: reference transferred
	evStore              // bare f stored into a field/slice/map/chan/closure
	evRelease            // f.Release()
)

// checkBorrowedFrame runs the lexical ownership simulation for one
// borrowed frame parameter.
func checkBorrowedFrame(pass *Pass, fn *ast.FuncDecl, frame types.Object) {
	isFrame := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == frame
	}
	// retainCall returns the CallExpr when e is f.Retain().
	retainCall := func(e ast.Expr) *ast.CallExpr {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Retain" || !isFrame(sel.X) {
			return nil
		}
		return call
	}
	// containsBareFrame reports whether e mentions f outside any
	// f.Retain() chain, returning the innermost offending position.
	var containsBareFrame func(e ast.Expr) (token.Pos, bool)
	containsBareFrame = func(e ast.Expr) (token.Pos, bool) {
		if retainCall(e) != nil {
			return token.NoPos, false
		}
		var found token.Pos
		ast.Inspect(e, func(n ast.Node) bool {
			if found != token.NoPos {
				return false
			}
			if expr, ok := n.(ast.Expr); ok {
				if retainCall(expr) != nil {
					return false // retained sub-expression: fine
				}
				if isFrame(expr) {
					found = expr.Pos()
					return false
				}
			}
			return true
		})
		return found, found != token.NoPos
	}

	var events []ownEvent
	handledRetains := map[*ast.CallExpr]bool{}

	// storeTargets classifies an assignment LHS: does writing to it
	// persist the value past this call frame?
	persists := func(lhs ast.Expr) bool {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[l]
			if obj == nil {
				obj = pass.TypesInfo.Defs[l]
			}
			if obj == nil || obj.Parent() == nil {
				return false
			}
			// Package-level variable: persists. Locals are aliases.
			return obj.Parent() == obj.Pkg().Scope()
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			return true
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				} else if len(n.Lhs) > 0 {
					lhs = n.Lhs[0]
				}
				classifyStoredValue(pass, rhs, lhs, persists, isFrame, retainCall, &events, handledRetains, containsBareFrame)
			}
		case *ast.SendStmt:
			if pos, ok := containsBareFrame(n.Value); ok {
				events = append(events, ownEvent{pos: pos, kind: evStore, desc: "sent on a channel"})
			} else if rc := retainCall(n.Value); rc != nil {
				events = append(events, ownEvent{pos: rc.Pos(), kind: evRetainStore})
				handledRetains[rc] = true
			}
		case *ast.CallExpr:
			if rc := retainCall(n); rc == n && !handledRetains[n] {
				// Classified later by parent context; ExprStmt parents
				// mark it bare via the deferred sweep below.
				return true
			}
		case *ast.FuncLit:
			// A closure capturing the frame persists it when the
			// closure outlives the call: deferred, spawned, or handed
			// to a scheduler.
			if pos, ok := containsBareFrame(n); ok && deferredClosure(pass, fn.Body, n) {
				events = append(events, ownEvent{pos: pos, kind: evStore, desc: "captured by a deferred/scheduled closure"})
				return false // don't double-count inner mentions
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if rc := retainCall(call); rc != nil {
					events = append(events, ownEvent{pos: rc.Pos(), kind: evRetain})
					handledRetains[rc] = true
					return false
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && isFrame(sel.X) {
					events = append(events, ownEvent{pos: call.Pos(), kind: evRelease})
					return false
				}
			}
		}
		return true
	})

	// Any Retain not consumed by a store/send context above is a bare
	// retain (e.g. `x := f.Retain()` handled in classifyStoredValue, so
	// what is left are argument positions: f.Retain() passed to a call
	// transfers the reference to the callee).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if rc := retainCall(arg); rc != nil && !handledRetains[rc] {
				events = append(events, ownEvent{pos: rc.Pos(), kind: evRetainStore})
				handledRetains[rc] = true
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	owned := 0
	var lastRetain token.Pos
	for _, ev := range events {
		switch ev.kind {
		case evRetain:
			owned++
			lastRetain = ev.pos
		case evRetainStore:
			// Retain chained into a store or argument: self-balancing.
		case evStore:
			if owned > 0 {
				owned--
			} else {
				pass.Reportf(ev.pos,
					"borrowed frame %s %s without a dominating Retain: the pooled buffer is recycled after "+
						"the handler returns, so the stored reference will observe a later frame's bytes "+
						"(Retain it — idiomatically, store f.Retain())",
					frame.Name(), ev.desc)
			}
		case evRelease:
			if owned > 0 {
				owned--
			} else {
				pass.Reportf(ev.pos,
					"Release of borrowed frame %s without a matching Retain in %s: this gives away the "+
						"caller's reference and over-releases the pool",
					frame.Name(), fn.Name.Name)
			}
		}
	}
	if owned > 0 {
		pass.Reportf(lastRetain,
			"frame %s Retained but neither stored nor Released before %s returns: the pooled buffer leaks",
			frame.Name(), fn.Name.Name)
	}
}

// classifyStoredValue records ownership events for one assignment pair.
func classifyStoredValue(
	pass *Pass,
	rhs, lhs ast.Expr,
	persists func(ast.Expr) bool,
	isFrame func(ast.Expr) bool,
	retainCall func(ast.Expr) *ast.CallExpr,
	events *[]ownEvent,
	handledRetains map[*ast.CallExpr]bool,
	containsBareFrame func(ast.Expr) (token.Pos, bool),
) {
	persistent := lhs != nil && persists(lhs)
	// append(...) persists into its destination slice; treat the append
	// result like its own first argument's storage class. The common
	// `x.buffered = append(x.buffered, f)` is caught by the field LHS
	// already; `local = append(local, f)` genuinely borrows only until
	// return unless local itself escapes, which is beyond this check.
	if rc := retainCall(rhs); rc != nil {
		// x = f.Retain(): a local alias transfers nothing we can track;
		// a persistent store transfers the reference. Both balance.
		*events = append(*events, ownEvent{pos: rc.Pos(), kind: evRetainStore})
		handledRetains[rc] = true
		return
	}
	if pos, ok := containsBareFrame(rhs); ok {
		if retainPos := nestedRetain(rhs, retainCall); retainPos != nil {
			*events = append(*events, ownEvent{pos: retainPos.Pos(), kind: evRetainStore})
			handledRetains[retainPos] = true
			return
		}
		if persistent {
			*events = append(*events, ownEvent{pos: pos, kind: evStore, desc: storeDesc(lhs)})
		}
		// Stores into plain locals are aliases within the borrow
		// window; allowed.
	}
}

// nestedRetain finds an f.Retain() call nested anywhere in e (e.g. as
// an append argument), which makes the whole stored expression a
// retained store.
func nestedRetain(e ast.Expr, retainCall func(ast.Expr) *ast.CallExpr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if expr, ok := n.(ast.Expr); ok {
			if rc := retainCall(expr); rc != nil {
				found = rc
				return false
			}
		}
		return true
	})
	return found
}

func storeDesc(lhs ast.Expr) string {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "stored into a field"
	case *ast.IndexExpr:
		return "stored into a slice or map element"
	case *ast.StarExpr:
		return "stored through a pointer"
	}
	return "stored into a package variable"
}

// deferredClosure reports whether lit escapes the call frame: it is the
// subject of a defer/go statement or an argument to a scheduling call
// (After/At/Schedule*/AfterFunc), which runs it after the borrow window
// has closed.
func deferredClosure(pass *Pass, body *ast.BlockStmt, lit *ast.FuncLit) bool {
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if deferred {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if callUsesLit(n.Call, lit) {
				deferred = true
			}
		case *ast.GoStmt:
			if callUsesLit(n.Call, lit) {
				deferred = true
			}
		case *ast.CallExpr:
			name, _ := calleeName(pass.TypesInfo, n)
			switch name {
			case "After", "At", "AfterFunc", "Schedule", "ScheduleRunner", "ScheduleKeyedFunc":
				for _, arg := range n.Args {
					if ast.Unparen(arg) == lit {
						deferred = true
					}
				}
			}
		}
		return true
	})
	return deferred
}

func callUsesLit(call *ast.CallExpr, lit *ast.FuncLit) bool {
	if ast.Unparen(call.Fun) == lit {
		return true
	}
	for _, arg := range call.Args {
		if ast.Unparen(arg) == lit {
			return true
		}
	}
	return false
}
