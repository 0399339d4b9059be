// Package lockorder enforces a consistent mutex acquisition order, the
// invariant that makes the planned parallel branch-and-bound (shared
// incumbent + work-stealing queue, ROADMAP "raw solver speed") deadlock
// free by construction. Locks are abstracted to classes (see package
// lockset): all instances of Registry.mu are one class, lockdep-style.
// Three defect shapes are reported:
//
//   - self-deadlock: acquiring a class that is already held on every path
//     to the acquisition (sync.Mutex is not reentrant; a second Lock —
//     or a write Lock under a read lock — blocks forever);
//
//   - lock-order inversion: somewhere in the module class A is acquired
//     while B is held, and somewhere else B is acquired while A is held.
//     Both sites are reported, each naming the other;
//
//   - held-class reacquisition through a call: calling a function whose
//     transitive lock summary includes a class currently held. Summaries
//     are collected module-wide and closed over the static call graph;
//     calls through func-typed values and deferred calls are not checked
//     (a deferred call runs at return, where the balance analyzer
//     separately requires locks to be released or deferred).
//
// The held set is a forward must-analysis over the package cfg graphs:
// joins intersect, so only locks held on every inbound path count —
// acquisition order is a safety claim, and a may-analysis would drown it
// in false positives. Function literals are analyzed as independent
// functions (their held set starts empty), but their acquisitions and
// calls fold into the enclosing function's summary.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"xic/internal/analysis"
	"xic/internal/analysis/cfg"
	"xic/internal/analysis/lockset"
)

// New constructs the analyzer.
func New() *analysis.Analyzer {
	l := &lockorder{
		pairs:   make(map[pairKey]token.Position),
		summary: make(map[*types.Func]map[types.Object]bool),
		calls:   make(map[*types.Func]map[*types.Func]bool),
		display: make(map[types.Object]string),
	}
	return &analysis.Analyzer{
		Name:    "lockorder",
		Doc:     "reports inconsistent mutex acquisition order, self-deadlocks, and calls that reacquire a held lock",
		Collect: l.collect,
		Run:     l.run,
	}
}

// pairKey is an ordered acquisition: inner was acquired while outer held.
type pairKey struct{ outer, inner types.Object }

type lockorder struct {
	// pairs maps each observed (outer held, inner acquired) ordering to
	// the first site witnessing it, module-wide.
	pairs map[pairKey]token.Position
	// summary maps a function to the lock classes it acquires, directly or
	// (after close()) through static calls.
	summary map[*types.Func]map[types.Object]bool
	// calls is the static, module-internal call graph.
	calls map[*types.Func]map[*types.Func]bool
	// display remembers a rendering for each class.
	display map[types.Object]string
	closed  bool
}

// state is the must-held set: class → held for write. Treated as
// immutable; step clones before updating.
type state map[types.Object]bool

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func equal(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// join intersects: a class is held after a merge only if held on both
// edges; it is write-held only if write-held on both.
func join(a, b state) state {
	out := make(state)
	for k, v := range a {
		if w, ok := b[k]; ok {
			out[k] = v && w
		}
	}
	return out
}

// hooks are the per-event callbacks of a reporting walk; all may be nil.
type hooks struct {
	acquire func(ev lockset.Event, held state)
	call    func(call *ast.CallExpr, callee *types.Func, held state)
}

// step applies one block's events to the incoming state, invoking hooks as
// it goes. It is the single transfer function shared by the fixpoint and
// the reporting walk, so both see identical states.
func step(info *types.Info, b *cfg.Block, in state, h hooks) state {
	cur := in.clone()
	for _, node := range b.Nodes {
		deferred := false
		if ds, ok := node.(*ast.DeferStmt); ok {
			deferred = true
			node = ds.Call
		}
		lockset.WalkCalls(node, func(call *ast.CallExpr) {
			if ev, ok := lockset.MutexOp(info, call); ok {
				if ev.Op.Acquire() && !deferred {
					if h.acquire != nil {
						h.acquire(ev, cur)
					}
					cur[ev.Class] = ev.Write
				} else if ev.Op.Release() && !deferred {
					delete(cur, ev.Class)
				}
				// Deferred mutex ops do not change the held set here: a
				// deferred Unlock releases at return, not at the defer.
				return
			}
			if deferred {
				return
			}
			if callee := lockset.Callee(info, call); callee != nil && h.call != nil {
				h.call(call, callee, cur)
			}
		})
	}
	return cur
}

// analyze runs the must-held fixpoint over body and replays it with hooks.
func analyze(pass *analysis.Pass, body *ast.BlockStmt, h hooks) {
	g := cfg.New(body, pass.Info)
	in, _ := cfg.Forward(g, state{}, join, equal,
		func(b *cfg.Block, s state) state { return step(pass.Info, b, s, hooks{}) })
	for _, b := range g.Blocks {
		s, reached := in[b]
		if !reached {
			continue
		}
		step(pass.Info, b, s, h)
	}
}

func (l *lockorder) collect(pass *analysis.Pass) error {
	lockset.Bodies(pass.Info, pass.Files, func(body *ast.BlockStmt, owner *types.Func) {
		analyze(pass, body, hooks{
			acquire: func(ev lockset.Event, held state) {
				l.display[ev.Class] = canonical(ev)
				if owner != nil {
					acq := l.summary[owner]
					if acq == nil {
						acq = make(map[types.Object]bool)
						l.summary[owner] = acq
					}
					acq[ev.Class] = true
				}
				for h := range held {
					if h == ev.Class {
						continue
					}
					key := pairKey{outer: h, inner: ev.Class}
					if _, ok := l.pairs[key]; !ok {
						l.pairs[key] = pass.Fset.Position(ev.Call.Pos())
					}
				}
			},
			call: func(_ *ast.CallExpr, callee *types.Func, _ state) {
				if owner == nil || owner == callee {
					return
				}
				cs := l.calls[owner]
				if cs == nil {
					cs = make(map[*types.Func]bool)
					l.calls[owner] = cs
				}
				cs[callee] = true
			},
		})
	})
	return nil
}

// close propagates summaries over the call graph to a fixpoint, so a
// function's summary covers everything it can reach through static,
// module-internal calls.
func (l *lockorder) close() {
	if l.closed {
		return
	}
	l.closed = true
	for changed := true; changed; {
		changed = false
		for fn, callees := range l.calls {
			for callee := range callees {
				for class := range l.summary[callee] {
					acq := l.summary[fn]
					if acq == nil {
						acq = make(map[types.Object]bool)
						l.summary[fn] = acq
					}
					if !acq[class] {
						acq[class] = true
						changed = true
					}
				}
			}
		}
	}
}

func (l *lockorder) run(pass *analysis.Pass) error {
	l.close()
	lockset.Bodies(pass.Info, pass.Files, func(body *ast.BlockStmt, owner *types.Func) {
		analyze(pass, body, hooks{
			acquire: func(ev lockset.Event, held state) {
				name := canonical(ev)
				if heldWrite, ok := held[ev.Class]; ok {
					// RLock under RLock succeeds today (shared mode); every
					// other same-class reacquisition can block forever.
					if ev.Write || heldWrite {
						pass.Reportf(ev.Call.Pos(), "%s of %s while %s is already held: sync mutexes are not reentrant (self-deadlock)",
							ev.Op, name, name)
					}
				}
				for h := range held {
					if h == ev.Class {
						continue
					}
					if other, ok := l.pairs[pairKey{outer: ev.Class, inner: h}]; ok {
						pass.Reportf(ev.Call.Pos(), "lock order inversion: %s acquired while %s is held, but %s:%d:%d acquires %s while %s is held",
							name, l.name(h), other.Filename, other.Line, other.Column, l.name(h), name)
					}
				}
			},
			call: func(call *ast.CallExpr, callee *types.Func, held state) {
				if len(held) == 0 || callee == owner {
					return
				}
				for class := range l.summary[callee] {
					if _, ok := held[class]; ok {
						pass.Reportf(call.Pos(), "call to %s acquires %s while %s is already held (reachable self-deadlock)",
							callee.Name(), l.name(class), l.name(class))
						break
					}
				}
			},
		})
	})
	return nil
}

// canonical renders a class for diagnostics: Type.field for struct
// fields, the variable name otherwise.
func canonical(ev lockset.Event) string {
	return className(ev.Class, ev.Display)
}

func (l *lockorder) name(class types.Object) string {
	return className(class, l.display[class])
}

func className(class types.Object, fallback string) string {
	if v, ok := class.(*types.Var); ok && v.IsField() {
		return fieldOwner(v) + v.Name()
	}
	if fallback != "" {
		return fallback
	}
	if class != nil {
		return class.Name()
	}
	return "?"
}

// fieldOwner finds the named type declaring a field, best-effort, by
// scanning the package scope for a struct containing it.
func fieldOwner(field *types.Var) string {
	pkg := field.Pkg()
	if pkg == nil {
		return ""
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Name() + "."
			}
		}
	}
	return ""
}
