package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the reproduction's headline property at
// compile time: same seed ⇒ byte-identical traces at every shard count
// (DESIGN.md §6). The paper's discovery race (PAPER.md §2) only
// reproduces when event order is exact, so the analyzer forbids the four
// ways wall-clock or scheduler nondeterminism classically leaks into a
// discrete-event core:
//
//  1. wall-clock reads (wallClockFuncs), in every package but the two
//     in clockPkgBases: virtual time comes from the engine, and a clock
//     read anywhere else makes a trace or a command's output depend on
//     the host's speed. Calls match by type information, so an aliased
//     import is the same call. There is no suppression.
//
// Rules 2–4 hold inside the trace-affecting packages (tracePkgBases):
//
//  2. math/rand global functions (rand.Intn, rand.Shuffle, ...) — the
//     process-wide source is shared across shards and seeded who knows
//     where. Per-entity seeded *rand.Rand streams (rand.New) are the
//     blessed pattern and pass.
//  3. map range statements whose body reaches an order-sensitive sink
//     (scheduling, frame emission, tap/fingerprint recording): Go
//     randomizes map iteration order per run, so any event or trace
//     byte produced inside such a loop varies run to run. Sweeps and
//     snapshots whose effect is order-independent pass untouched.
//  4. go statements: the simulator runs on one goroutine, so a spawn
//     makes what it touches depend on the Go scheduler. Code that
//     cannot reach a trace (a daemon's connection handlers) says so with
//     a suppression.
//
// Packages are matched by import-path base so the analysistest fixtures
// exercise the real predicate.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// clockPkgBases are the packages whose job is wall-clock time: the live
// daemon (serve: uptime, pacing, dial retries, socket deadlines) and the
// speed harness (perf, the bench/perf module, which runs this suite over
// itself).
var clockPkgBases = map[string]bool{"serve": true, "perf": true}

// wallClockFuncs are the calls that read the host's clock or sample its
// scheduler: whatever they feed differs from run to run.
var wallClockFuncs = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Until": true,
	"runtime.SetMutexProfileFraction": true, "runtime.SetBlockProfileRate": true,
}

// tracePkgBases are the trace-affecting packages, keyed by import-path
// base name: the event engine, the network simulator, every protocol
// implementation and the path table under them (its victim order decides
// which flow re-floods), topology/partitioning, the scenario engine,
// hosts, the chassis, the experiment runners and the live serving loop.
var tracePkgBases = map[string]bool{
	"sim": true, "netsim": true, "core": true, "flowpath": true,
	"learning": true, "tables": true,
	"topo": true, "scenario": true, "host": true, "bridge": true,
	"experiments": true, "serve": true,
}

// orderSinkNames are method/function names through which an iteration
// order becomes an event order or a trace byte: scheduling primitives,
// frame transmission and flooding, tap emission and fingerprinting.
var orderSinkNames = map[string]bool{
	"Schedule": true, "ScheduleRunner": true, "ScheduleKeyed": true,
	"ScheduleKeyedFunc": true, "At": true, "After": true,
	"Send": true, "SendFrame": true, "FloodExcept": true,
	"FloodBytesExcept": true, "emit": true, "Emit": true,
}

func runDeterminism(pass *Pass) error {
	clockFree := !clockPkgBases[pass.PkgBase()]
	trace := tracePkgBases[pass.PkgBase()]
	pass.buildSuppressions()
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if clockFree {
					checkWallClock(pass, n)
				}
			case *ast.CallExpr:
				if trace {
					checkGlobalRand(pass, n)
				}
			case *ast.RangeStmt:
				if trace {
					checkMapRange(pass, n)
				}
			case *ast.GoStmt:
				if trace {
					checkGoStmt(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkWallClock flags every use of a wallClockFuncs function, called
// or taken as a value, whatever name its package is imported under.
func checkWallClock(pass *Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return
	}
	if name := fn.Pkg().Path() + "." + fn.Name(); wallClockFuncs[name] {
		pass.Reportf(id.Pos(),
			"%s reads the wall clock in package %s: virtual time comes from the engine; only the live daemon "+
				"(serve) and the speed harness (bench/perf) may read the host's clock",
			name, pass.PkgBase())
	}
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	obj := calleeObj(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if path := obj.Pkg().Path(); path == "math/rand" || path == "math/rand/v2" {
		// Only the package-level convenience functions draw from the
		// shared global source; constructors and methods on explicit
		// per-entity sources are the blessed pattern.
		if _, isFunc := obj.(*types.Func); !isFunc {
			return
		}
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // method on *rand.Rand etc.
		}
		switch obj.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		if !pass.Suppressed(call.Pos()) {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the process-global random source: draw from the entity's sim.Stream "+
					"(or a run's own rand.New(rand.NewSource(seed))) so draws are a function of one entity's history",
				path, obj.Name())
		}
	}
}

// checkMapRange flags `for ... range m` over a map when the loop body
// lexically reaches an order-sensitive sink. Go randomizes map
// iteration, so everything such a loop schedules or emits lands in a
// different order every run.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); !isMap {
		return
	}
	var sink *ast.CallExpr
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, obj := calleeName(pass.TypesInfo, call); orderSinkNames[name] || strings.Contains(name, "Fingerprint") {
			// time.Time.After etc. are value methods, not schedulers.
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
				return true
			}
			sink = call
			return false
		}
		return true
	})
	if sink == nil {
		return
	}
	if pass.Suppressed(rng.Pos()) {
		return
	}
	name, _ := calleeName(pass.TypesInfo, sink)
	pass.Reportf(rng.Pos(),
		"map iteration order flows into %s: Go randomizes map range order, so scheduled events and trace bytes "+
			"produced here differ run to run; iterate a sorted key slice, or annotate //fabriclint:nondeterministic <why>",
		name)
}

func calleeName(info *types.Info, call *ast.CallExpr) (string, types.Object) {
	obj := calleeObj(info, call)
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name, obj
	case *ast.SelectorExpr:
		return fn.Sel.Name, obj
	}
	return "", obj
}

func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	if pass.Suppressed(g.Pos()) {
		return
	}
	pass.Reportf(g.Pos(),
		"goroutine spawned in trace-affecting code: the simulator runs on one goroutine; "+
			"annotate //fabriclint:nondeterministic <why> if this one cannot reach a trace")
}
