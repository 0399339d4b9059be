// Package ratalias guards the exact-arithmetic core against the aliasing
// bug class the encoding-template design exists to prevent: *big.Rat and
// *big.Int are mutable pointers, so storing a caller-supplied rational
// into a long-lived structure without an intervening new(big.Rat).Set(v)
// lets a later in-place mutation corrupt state that was supposed to be
// immutable (the compiled Spec template, simplex rows).
//
// The analyzer runs over the solver packages (ilp, simplex, presolve) and
// performs a per-function taint walk: parameters and receivers are taint
// roots; calls produce fresh values (so new(big.Rat).Set(v), Clone(),
// big.NewInt(...) all launder taint); append and composite literals
// propagate it. A store is reported when its left-hand side is reachable
// from a parameter or receiver (a selector/index chain rooted at one) and
// the stored value carries taint from a *different* root — writing s.rows
// back into s is fine, writing the parameter v into s.lo[j] is not.
//
// The walk is a single forward pass per function: taint introduced by a
// later statement is not seen by an earlier one, which is sufficient for
// the straight-line store patterns this invariant concerns.
package ratalias

import (
	"go/ast"
	"go/types"

	"xic/internal/analysis"
)

// scoped names the solver packages (by package name, which also lets
// fixtures opt in by declaring `package simplex` etc.).
var scoped = map[string]bool{"ilp": true, "simplex": true, "presolve": true}

// New constructs the analyzer. It keeps no cross-package state.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "ratalias",
		Doc:  "reports parameter-reachable *big.Rat/*big.Int values stored into long-lived structures without a copy",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	if !scoped[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{
				pass:    pass,
				roots:   make(map[types.Object]bool),
				origins: make(map[types.Object]map[types.Object]bool),
			}
			w.addParams(fd.Recv)
			w.addParams(fd.Type.Params)
			w.stmt(fd.Body)
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	// roots are the parameter/receiver objects of the enclosing function
	// chain (function literals add their own).
	roots map[types.Object]bool
	// origins maps a local variable to the roots its value may alias.
	origins map[types.Object]map[types.Object]bool
}

func (w *walker) addParams(fields *ast.FieldList) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		for _, name := range field.Names {
			if obj := w.pass.Info.Defs[name]; obj != nil {
				w.roots[obj] = true
			}
		}
	}
}

// stmt walks statements in source order, updating taint and checking
// stores.
func (w *walker) stmt(n ast.Node) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.bind(name, w.origins_(vs.Values[i]))
						w.funcLits(vs.Values[i])
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a tainted collection taints the element variable.
		org := w.origins_(s.X)
		if s.Value != nil {
			if id, ok := s.Value.(*ast.Ident); ok {
				w.bindObj(w.pass.Info.Defs[id], org)
			}
		}
		if s.Key != nil {
			if id, ok := s.Key.(*ast.Ident); ok && ratBearing(w.pass.Info.TypeOf(id)) {
				w.bindObj(w.pass.Info.Defs[id], org)
			}
		}
		w.stmt(s.Body)
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.funcLits(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.CommClause:
		w.stmt(s.Comm)
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ExprStmt:
		w.funcLits(s.X)
	case *ast.DeferStmt:
		w.funcLits(s.Call)
	case *ast.GoStmt:
		w.funcLits(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.funcLits(r)
		}
	}
}

// assign checks each store and updates local taint.
func (w *walker) assign(s *ast.AssignStmt) {
	pairwise := len(s.Lhs) == len(s.Rhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if pairwise {
			rhs = s.Rhs[i]
		} else {
			// Multi-value RHS is a call/type-assert/map-index: results are
			// fresh (or interface unwraps, which this walk does not chase).
			rhs = nil
		}

		if rhs != nil {
			if root := w.persistentRoot(lhs); root != nil {
				leaks := w.ratLeaks(rhs)
				for origin := range leaks {
					if origin != root {
						w.pass.Reportf(s.Pos(), "stored value may alias %s reachable from parameter %s; copy with new(big.Int/big.Rat).Set before storing", typeName(w.pass.Info.TypeOf(rhs)), origin.Name())
						break
					}
				}
			}
		}

		// Taint update for plain rebinds; a multi-value RHS (rhs == nil
		// here) produces fresh values and clears taint. Parameters can be
		// rebound too: `v = new(big.Int).Neg(v)` launders v.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			var obj types.Object
			if def := w.pass.Info.Defs[id]; def != nil {
				obj = def
			} else if use := w.pass.Info.Uses[id]; use != nil {
				obj = use
			}
			w.bindObj(obj, w.origins_(rhs))
		}
	}
	for _, rhs := range s.Rhs {
		w.funcLits(rhs)
	}
}

func (w *walker) bind(name *ast.Ident, org map[types.Object]bool) {
	w.bindObj(w.pass.Info.Defs[name], org)
}

// bindObj records the roots obj's value may alias. A nil/empty set is
// stored too: it marks a variable (possibly a parameter) rebound to a
// fresh value, overriding the param-is-its-own-origin default.
func (w *walker) bindObj(obj types.Object, org map[types.Object]bool) {
	if obj == nil {
		return
	}
	w.origins[obj] = org
}

// funcLits analyzes function literals nested in an expression: each gets a
// fresh walker layer inheriting the current taint plus its own parameters
// as roots.
func (w *walker) funcLits(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		inner := &walker{
			pass:    w.pass,
			roots:   make(map[types.Object]bool, len(w.roots)),
			origins: make(map[types.Object]map[types.Object]bool, len(w.origins)),
		}
		for k, v := range w.roots {
			inner.roots[k] = v
		}
		for k, v := range w.origins {
			inner.origins[k] = v
		}
		inner.addParams(lit.Type.Params)
		inner.stmt(lit.Body)
		return false
	})
}

// persistentRoot returns the parameter/receiver object a store writes
// through, if the LHS is a selector/index/deref chain rooted at one.
func (w *walker) persistentRoot(lhs ast.Expr) types.Object {
	e := ast.Unparen(lhs)
	rooted := false // true once we've stepped through at least one level
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e, rooted = ast.Unparen(x.X), true
		case *ast.IndexExpr:
			e, rooted = ast.Unparen(x.X), true
		case *ast.StarExpr:
			e, rooted = ast.Unparen(x.X), true
		case *ast.Ident:
			if !rooted {
				return nil // plain rebind of a local or parameter copy
			}
			var obj types.Object
			if use := w.pass.Info.Uses[x]; use != nil {
				obj = use
			}
			if obj != nil && w.roots[obj] {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

// origins_ computes the set of roots an expression's value may alias.
func (w *walker) origins_(e ast.Expr) map[types.Object]bool {
	if e == nil {
		return nil
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.pass.Info.Uses[x]; obj != nil {
			if org, ok := w.origins[obj]; ok {
				return org
			}
			if w.roots[obj] {
				return map[types.Object]bool{obj: true}
			}
		}
		return nil
	case *ast.SelectorExpr:
		if _, ok := w.pass.Info.Selections[x]; !ok {
			return nil // package-qualified name
		}
		return w.origins_(x.X)
	case *ast.IndexExpr:
		return w.origins_(x.X)
	case *ast.StarExpr:
		return w.origins_(x.X)
	case *ast.SliceExpr:
		return w.origins_(x.X)
	case *ast.UnaryExpr:
		return w.origins_(x.X)
	case *ast.TypeAssertExpr:
		return w.origins_(x.X)
	case *ast.CompositeLit:
		out := make(map[types.Object]bool)
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			for o := range w.origins_(elt) {
				out[o] = true
			}
		}
		return out
	case *ast.CallExpr:
		if isAppend(w.pass, x) {
			out := make(map[types.Object]bool)
			for _, arg := range x.Args {
				for o := range w.origins_(arg) {
					out[o] = true
				}
			}
			return out
		}
		if tv, ok := w.pass.Info.Types[x.Fun]; ok && tv.IsType() {
			// Conversions preserve aliasing.
			if len(x.Args) == 1 {
				return w.origins_(x.Args[0])
			}
		}
		return nil // ordinary calls produce fresh values
	default:
		return nil
	}
}

// ratLeaks is origins_ restricted to leaves whose type can carry a big.Rat
// or big.Int: only those stores can alias mutable rational state.
func (w *walker) ratLeaks(e ast.Expr) map[types.Object]bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		out := make(map[types.Object]bool)
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			for o := range w.ratLeaks(elt) {
				out[o] = true
			}
		}
		return out
	case *ast.UnaryExpr:
		return w.ratLeaks(x.X)
	case *ast.CallExpr:
		if isAppend(w.pass, x) {
			out := make(map[types.Object]bool)
			for _, arg := range x.Args {
				for o := range w.ratLeaks(arg) {
					out[o] = true
				}
			}
			return out
		}
		if tv, ok := w.pass.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return w.ratLeaks(x.Args[0])
		}
		return nil
	default:
		if !ratBearing(w.pass.Info.TypeOf(e)) {
			return nil
		}
		return w.origins_(e)
	}
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	builtin, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && builtin.Name() == "append"
}

// ratBearing reports whether t can transitively hold a *big.Rat or
// *big.Int.
func ratBearing(t types.Type) bool {
	return ratBearingSeen(t, make(map[types.Type]bool))
}

func ratBearingSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "math/big" && (obj.Name() == "Rat" || obj.Name() == "Int") {
			return true
		}
		return ratBearingSeen(u.Underlying(), seen)
	case *types.Pointer:
		return ratBearingSeen(u.Elem(), seen)
	case *types.Slice:
		return ratBearingSeen(u.Elem(), seen)
	case *types.Array:
		return ratBearingSeen(u.Elem(), seen)
	case *types.Chan:
		return ratBearingSeen(u.Elem(), seen)
	case *types.Map:
		return ratBearingSeen(u.Key(), seen) || ratBearingSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if ratBearingSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func typeName(t types.Type) string {
	if t == nil {
		return "value"
	}
	return t.String()
}
