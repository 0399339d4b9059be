// Package lockbalance enforces release discipline on sync mutexes: every
// path out of a function must leave each lock the way it found it. Three
// defect shapes are reported, all over the package cfg must-analysis:
//
//   - leaked lock: a return (or fall-off-the-end) reached with a class
//     held on every path and no deferred Unlock registered for it;
//
//   - double release: an Unlock/RUnlock on a path where the class was
//     already released. A release with no prior acquisition in the
//     function is deliberately NOT reported — helpers that release a lock
//     on behalf of their caller (the *Locked method convention) are
//     legitimate — only release-after-release is;
//
//   - held across a callback: a call through a func-typed value
//     (parameter, local, or field — the shapes user code can inject)
//     while a class is held with no deferred Unlock registered. If the
//     callback panics, the lock is poisoned and every later acquirer
//     deadlocks; the fix is `defer mu.Unlock()`.
//
// Per-class state forms the lattice Never < Held / Released < Both (the
// join of a held and a released path); reports fire only on must facts
// (Held / Released), never on Both, so merge-heavy code stays quiet.
// Deferred unlocks accumulate as a must-set (intersection at joins).
// Panicking terminators (panic, log.Fatal, testing's Fatal/Skip) edge to
// Exit without a leak report: crashing with a lock held is the crash's
// problem, not the lock's.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"xic/internal/analysis"
	"xic/internal/analysis/cfg"
	"xic/internal/analysis/lockset"
)

// New constructs the analyzer. It is purely intraprocedural, so it has no
// Collect phase.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockbalance",
		Doc:  "reports paths that leak a held mutex, double releases, and locks held across user callbacks without a deferred unlock",
		Run:  run,
	}
}

// cls is the per-class lattice value.
type cls int

const (
	clsNever    cls = iota // bottom / not seen on this path
	clsHeld                // must be held
	clsReleased            // must have been acquired and released
	clsBoth                // top: paths disagree
)

// state is the per-block dataflow value. Maps are treated as immutable;
// step clones before writing.
type state struct {
	locks  map[types.Object]cls
	defers map[types.Object]bool // classes with a registered deferred release
	// names renders classes for diagnostics; merged unioned, harmless.
	names map[types.Object]string
}

func newState() state {
	return state{
		locks:  make(map[types.Object]cls),
		defers: make(map[types.Object]bool),
		names:  make(map[types.Object]string),
	}
}

func (s state) clone() state {
	c := newState()
	for k, v := range s.locks {
		c.locks[k] = v
	}
	for k := range s.defers {
		c.defers[k] = true
	}
	for k, v := range s.names {
		c.names[k] = v
	}
	return c
}

func equal(a, b state) bool {
	if len(a.locks) != len(b.locks) || len(a.defers) != len(b.defers) {
		return false
	}
	for k, v := range a.locks {
		if w, ok := b.locks[k]; !ok || w != v {
			return false
		}
	}
	for k := range a.defers {
		if !b.defers[k] {
			return false
		}
	}
	return true
}

func join(a, b state) state {
	out := newState()
	for k, v := range a.locks {
		if w, ok := b.locks[k]; ok {
			if v == w {
				out.locks[k] = v
			} else {
				out.locks[k] = clsBoth
			}
		} else if v != clsNever {
			out.locks[k] = clsBoth
		}
	}
	for k, w := range b.locks {
		if _, ok := a.locks[k]; !ok && w != clsNever {
			out.locks[k] = clsBoth
		}
	}
	for k := range a.defers {
		if b.defers[k] {
			out.defers[k] = true
		}
	}
	for k, v := range a.names {
		out.names[k] = v
	}
	for k, v := range b.names {
		out.names[k] = v
	}
	return out
}

// hooks are reporting callbacks for the replay walk.
type hooks struct {
	doubleRelease func(ev lockset.Event)
	ret           func(pos token.Pos, held []heldClass)
	dynamic       func(call *ast.CallExpr, held []heldClass)
}

// heldClass is one must-held, not-deferred class at a program point.
type heldClass struct {
	class types.Object
	name  string
}

// step is the shared transfer function of the fixpoint and the replay.
func step(info *types.Info, b *cfg.Block, in state, exitSucc bool, rbrace token.Pos, h hooks) state {
	cur := in.clone()
	var lastNode ast.Node
	for _, node := range b.Nodes {
		lastNode = node
		deferred := false
		n := node
		if ds, ok := node.(*ast.DeferStmt); ok {
			deferred = true
			n = ds.Call
		}
		if ret, ok := node.(*ast.ReturnStmt); ok && h.ret != nil {
			// Result expressions evaluate before the return transfers
			// control; visit them first.
			lockset.WalkCalls(ret, func(call *ast.CallExpr) { applyCall(info, call, false, &cur, h) })
			h.ret(ret.Pos(), heldUnDeferred(cur))
			continue
		}
		lockset.WalkCalls(n, func(call *ast.CallExpr) { applyCall(info, call, deferred, &cur, h) })
	}
	if exitSucc && h.ret != nil && !endsExplicitly(lastNode, info) {
		// Fall-off-the-end exit: the function's closing brace is the
		// return point.
		h.ret(rbrace, heldUnDeferred(cur))
	}
	return cur
}

// endsExplicitly reports whether the block's last node already accounts
// for the transfer to Exit: a return statement (hooked above) or a
// terminating call such as panic.
func endsExplicitly(n ast.Node, info *types.Info) bool {
	switch x := n.(type) {
	case nil:
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if _, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			// Only terminating calls end a block into Exit; a block whose
			// last node is a plain call with Exit as successor is the
			// final statement of the function, which is a fall-off end...
			// unless the cfg builder routed it there for termination. The
			// builder leaves terminated blocks with Exit as the ONLY
			// successor and a fresh dead block after, so both shapes have
			// Exit in Succs; distinguishing them needs the call itself.
			return isTerminalCall(info, ast.Unparen(x.X).(*ast.CallExpr))
		}
	}
	return false
}

// isTerminalCall mirrors the cfg builder's notion of a never-returning
// call.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		return obj.Name() == "panic"
	case *types.Func:
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "os":
				return obj.Name() == "Exit"
			case "runtime":
				return obj.Name() == "Goexit"
			case "log", "testing":
				switch obj.Name() {
				case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln",
					"FailNow", "Skip", "Skipf", "SkipNow":
					return true
				}
			}
		}
	}
	return false
}

func applyCall(info *types.Info, call *ast.CallExpr, deferred bool, cur *state, h hooks) {
	if ev, ok := lockset.MutexOp(info, call); ok {
		cur.names[ev.Class] = displayName(ev)
		switch {
		case ev.Op.Acquire() && !deferred:
			cur.locks[ev.Class] = clsHeld
		case ev.Op.Release() && deferred:
			cur.defers[ev.Class] = true
		case ev.Op.Release():
			if cur.locks[ev.Class] == clsReleased && h.doubleRelease != nil {
				h.doubleRelease(ev)
			}
			cur.locks[ev.Class] = clsReleased
		}
		return
	}
	if deferred {
		return
	}
	if _, ok := lockset.FuncValue(info, call); ok && h.dynamic != nil {
		h.dynamic(call, heldUnDeferred(*cur))
	}
}

// heldUnDeferred lists the classes that are must-held with no deferred
// release registered, sorted by name for deterministic reports.
func heldUnDeferred(s state) []heldClass {
	var out []heldClass
	for class, c := range s.locks {
		if c == clsHeld && !s.defers[class] {
			out = append(out, heldClass{class: class, name: s.names[class]})
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func displayName(ev lockset.Event) string {
	return ev.Display
}

func run(pass *analysis.Pass) error {
	lockset.Bodies(pass.Info, pass.Files, func(body *ast.BlockStmt, _ *types.Func) {
		g := cfg.New(body, pass.Info)
		in, _ := cfg.Forward(g, newState(), join, equal,
			func(b *cfg.Block, s state) state {
				return step(pass.Info, b, s, false, body.Rbrace, hooks{})
			})
		for _, b := range g.Blocks {
			s, reached := in[b]
			if !reached {
				continue
			}
			exitSucc := false
			for _, succ := range b.Succs {
				if succ == g.Exit {
					exitSucc = true
				}
			}
			step(pass.Info, b, s, exitSucc, body.Rbrace, hooks{
				doubleRelease: func(ev lockset.Event) {
					pass.Reportf(ev.Call.Pos(), "%s of %s, but %s was already released on this path (double unlock panics)",
						ev.Op, displayName(ev), displayName(ev))
				},
				ret: func(pos token.Pos, held []heldClass) {
					for _, hc := range held {
						pass.Reportf(pos, "returns with %s held: no Unlock or deferred Unlock on this path", hc.name)
					}
				},
				dynamic: func(call *ast.CallExpr, held []heldClass) {
					for _, hc := range held {
						pass.Reportf(call.Pos(), "%s is held across a call to a function value with no deferred Unlock: a panic in the callback leaks the lock", hc.name)
					}
				},
			})
		}
	})
	return nil
}
