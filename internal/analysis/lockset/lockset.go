// Package lockset is the shared vocabulary of the lock analyzers
// (lockorder, lockbalance): it recognizes sync.Mutex/sync.RWMutex method
// calls and canonicalizes the expression they are called on into a *lock
// class*.
//
// A class is a types.Object chosen so that the "same lock" in the
// lockdep sense maps to the same object across functions and packages:
//
//   - a mutex held in a struct field canonicalizes to the field's object
//     (every Registry instance's mu is one class — acquisition-order
//     invariants are per-field, not per-instance);
//   - a package-level var canonicalizes to the var object;
//   - a local variable canonicalizes to the local var object, which is
//     naturally function-scoped.
//
// A type that embeds sync.Mutex canonicalizes t.Lock() to the embedded
// field object the method selection traverses, so `t.Lock()` and an
// explicit `t.Mutex.Lock()` agree. Class objects are comparable across
// packages because the whole module is type-checked in one session.
package lockset

import (
	"go/ast"
	"go/types"
)

// Op is one mutex operation kind.
type Op int

const (
	// Lock is a write acquisition (Mutex.Lock, RWMutex.Lock).
	Lock Op = iota
	// RLock is a read acquisition (RWMutex.RLock).
	RLock
	// Unlock is a write release.
	Unlock
	// RUnlock is a read release.
	RUnlock
	// TryLock covers TryLock/TryRLock: acquisitions that may fail, which
	// must-analyses skip (the lock is held on only one result branch).
	TryLock
)

func (o Op) String() string {
	switch o {
	case Lock:
		return "Lock"
	case RLock:
		return "RLock"
	case Unlock:
		return "Unlock"
	case RUnlock:
		return "RUnlock"
	case TryLock:
		return "TryLock"
	}
	return "?"
}

// Acquire reports whether the op takes the lock unconditionally.
func (o Op) Acquire() bool { return o == Lock || o == RLock }

// Release reports whether the op releases the lock.
func (o Op) Release() bool { return o == Unlock || o == RUnlock }

// Event is one recognized mutex operation.
type Event struct {
	Call *ast.CallExpr
	// Class identifies the lock; Display renders it for diagnostics
	// (e.g. "r.mu" or "Registry.mu" for the canonical field form).
	Class   types.Object
	Display string
	Op      Op
	// Write distinguishes Lock/Unlock from RLock/RUnlock.
	Write bool
}

// MutexOp reports whether call is a sync.Mutex or sync.RWMutex method call
// whose receiver canonicalizes to a class.
func MutexOp(info *types.Info, call *ast.CallExpr) (Event, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Event{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return Event{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return Event{}, false
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil {
		return Event{}, false
	}
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return Event{}, false
	}

	var op Op
	var write bool
	switch fn.Name() {
	case "Lock":
		op, write = Lock, true
	case "RLock":
		op, write = RLock, false
	case "Unlock":
		op, write = Unlock, true
	case "RUnlock":
		op, write = RUnlock, false
	case "TryLock":
		op, write = TryLock, true
	case "TryRLock":
		op, write = TryLock, false
	default:
		return Event{}, false
	}

	class, display, ok := classOfReceiver(info, sel)
	if !ok {
		return Event{}, false
	}
	return Event{Call: call, Class: class, Display: display, Op: op, Write: write}, true
}

// classOfReceiver canonicalizes the receiver of a method selection. When
// the method is promoted from an embedded Mutex, the class is the embedded
// field the selection traverses; otherwise it is classOf of the receiver
// expression.
func classOfReceiver(info *types.Info, sel *ast.SelectorExpr) (types.Object, string, bool) {
	if s, ok := info.Selections[sel]; ok {
		if idx := s.Index(); len(idx) > 1 {
			// Promoted method: resolve the embedded field path; the last
			// field before the method is the mutex itself.
			t := s.Recv()
			var field *types.Var
			for _, i := range idx[:len(idx)-1] {
				st, ok := structOf(t)
				if !ok {
					return nil, "", false
				}
				field = st.Field(i)
				t = field.Type()
			}
			if field != nil {
				return field, types.ExprString(sel.X) + "." + field.Name(), true
			}
		}
	}
	return classOf(info, sel.X)
}

// classOf canonicalizes a lock-valued expression into its class object:
// the final struct field of a selector chain, a package var, or a local
// var. Expressions whose identity cannot be pinned down (results of calls,
// map index of interface, ...) return ok=false.
func classOf(info *types.Info, expr ast.Expr) (types.Object, string, bool) {
	display := types.ExprString(ast.Unparen(expr))
	e := ast.Unparen(expr)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj, ok := info.Uses[x].(*types.Var); ok {
				return obj, display, true
			}
			if obj, ok := info.Defs[x].(*types.Var); ok {
				return obj, display, true
			}
			return nil, "", false
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				return s.Obj(), display, true
			}
			// Qualified package-level var: pkg.Var.
			if obj, ok := info.Uses[x.Sel].(*types.Var); ok {
				return obj, display, true
			}
			return nil, "", false
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		default:
			return nil, "", false
		}
	}
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func structOf(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// Callee resolves a call's static callee function, descending through
// selector and plain identifiers. Calls through func-typed values return
// nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Bodies enumerates the function bodies of a package's files: each
// FuncDecl, and every FuncLit attributed to the FuncDecl it lexically sits
// in (owner is nil for literals in package-level initializers). Literals
// are enumerated at any nesting depth; each body is visited exactly once.
func Bodies(info *types.Info, files []*ast.File, visit func(body *ast.BlockStmt, owner *types.Func)) {
	for _, file := range files {
		for _, decl := range file.Decls {
			var owner *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				owner, _ = info.Defs[fd.Name].(*types.Func)
				if fd.Body != nil {
					visit(fd.Body, owner)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(lit.Body, owner)
				}
				return true
			})
		}
	}
}

// WalkCalls visits every CallExpr under n in source order, without
// descending into function literals (their bodies are separate functions
// with their own control flow).
func WalkCalls(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// FuncValue reports whether a call invokes a func-typed *value* — a
// parameter, local, or struct field of function type — rather than a
// declared function or method. These are the "user callback" call sites
// the lock analyzers treat as able to panic out of the caller's control.
func FuncValue(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Var); ok {
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				return obj, true
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.FieldVal {
			if _, isSig := s.Obj().Type().Underlying().(*types.Signature); isSig {
				return s.Obj(), true
			}
		}
	}
	return nil, false
}
