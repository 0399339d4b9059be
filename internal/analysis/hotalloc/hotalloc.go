// Package hotalloc enforces the zero-allocation contract of //xic:hotpath
// regions: the simplex pivot kernel and its rat64 arithmetic, the parallel
// search's node loop, the presolve fixpoint passes, and doccheck's
// per-event path. A hot region —
// a marked function's whole body (nested literals included) or a marked
// loop's per-iteration code — must not allocate:
//
//   - no direct allocation sites: new/make, &T{...}, slice/map literals,
//     append (which may grow its backing array), string building and
//     string<->[]byte conversions, function literals (closure values), go
//     statements;
//   - no interface boxing: passing a concrete non-pointer value to an
//     interface parameter (fmt-style ...any included) materializes an
//     escape;
//   - interprocedurally, no calls into a function whose summary says it
//     allocates (see internal/analysis/summary) — unless that callee is
//     itself //xic:hotpath-marked, in which case its body is policed at
//     its own sites and the call is free here.
//
// Dynamic calls through func values (the simplex interrupt hook),
// interface dispatch and methods called through a type parameter are
// assumed clean: the contract polices the module's own discipline, not
// arbitrary callbacks. A generic kernel's arithmetic is therefore marked
// //xic:hotpath at its concrete methods (the simplex rat64 methods), so
// their bodies are policed at their own sites. math/big methods are likewise
// not allocation — they write into their receiver, and steady-state
// scratch reuse amortizes growth — while big.NewInt-style constructors
// are. Justified exceptions (amortized deque growth, error paths that
// fire once per search) carry //xic:ignore hotalloc with a reason.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"xic/internal/analysis"
	"xic/internal/analysis/calls"
	"xic/internal/analysis/hotpath"
	"xic/internal/analysis/summary"
)

type hotalloc struct {
	sh *summary.Shared
	// hot marks //xic:hotpath functions module-wide (across every
	// type-checking world), for the call-site exemption.
	hot map[*types.Func]bool
}

// New constructs a standalone analyzer with its own call graph.
func New() *analysis.Analyzer { return NewShared(summary.NewShared()) }

// NewShared constructs the analyzer over a shared call graph (the suite
// builds one graph for all interprocedural analyzers).
func NewShared(sh *summary.Shared) *analysis.Analyzer {
	h := &hotalloc{sh: sh, hot: make(map[*types.Func]bool)}
	return &analysis.Analyzer{
		Name:    "hotalloc",
		Doc:     "forbids heap allocation — direct, boxed, or through any callee whose summary allocates — inside //xic:hotpath functions and loops",
		Collect: h.collect,
		Run:     h.run,
	}
}

func (h *hotalloc) collect(pass *analysis.Pass) error {
	h.sh.Add(pass.Files, pass.Pkg, pass.Info)
	marks := hotpath.Scan(pass.Fset, pass.Files)
	for _, fd := range marks.Funcs {
		if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			h.hot[fn] = true
		}
	}
	return nil
}

func (h *hotalloc) run(pass *analysis.Pass) error {
	_, facts := h.sh.Resolve()
	marks := hotpath.Scan(pass.Fset, pass.Files)
	if len(marks.Funcs) == 0 && len(marks.Loops) == 0 {
		return nil
	}
	reported := make(map[token.Pos]bool)
	for _, fd := range marks.Funcs {
		h.checkRegion(pass, facts, fd.Body, reported)
	}
	for _, loop := range marks.Loops {
		switch l := loop.(type) {
		case *ast.ForStmt:
			// Init runs once; the per-iteration contract covers cond, post
			// and body.
			h.checkRegion(pass, facts, l.Cond, reported)
			h.checkRegion(pass, facts, l.Post, reported)
			h.checkRegion(pass, facts, l.Body, reported)
		case *ast.RangeStmt:
			// The range expression is evaluated once; the body iterates.
			h.checkRegion(pass, facts, l.Body, reported)
		}
	}
	return nil
}

// checkRegion reports every allocation in the region rooted at root,
// function literals included.
func (h *hotalloc) checkRegion(pass *analysis.Pass, facts *summary.Set, root ast.Node, reported map[token.Pos]bool) {
	if root == nil || isNilNode(root) {
		return
	}
	// Roots: the region itself plus each nested literal body, so every
	// expression is visited exactly once (the walkers below do not descend
	// into literals).
	roots := []ast.Node{root}
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			roots = append(roots, lit.Body)
		}
		return true
	})
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	for _, r := range roots {
		for _, site := range summary.AllocSites(pass.Info, r) {
			report(site.Pos, "hot path allocates: %s", site.What)
		}
		calls.Walk(r, func(call *ast.CallExpr) {
			callee := calls.Callee(pass.Info, call)
			if callee == nil {
				return // func-value/interface dispatch: assumed clean
			}
			if h.hot[callee] {
				return // hotpath callee: policed at its own sites
			}
			if facts.Known(callee) {
				if f := facts.Of(callee); f.Allocates {
					report(call.Pos(), "hot path calls %s, which allocates (%s)", callee.Name(), facts.AllocChain(callee))
					return
				}
			} else if why, ok := summary.ExternalAllocs(callee); ok {
				report(call.Pos(), "hot path %s, which allocates", why)
				return
			}
			if arg, param, ok := boxedArg(pass.Info, call); ok {
				report(arg.Pos(), "hot path boxes %s into interface parameter of %s", types.ExprString(arg), param)
			}
		})
	}
}

// isNilNode guards against typed-nil ast.Expr roots (a ForStmt with no
// post statement).
func isNilNode(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.BlockStmt:
		return x == nil
	case ast.Expr:
		return x == nil
	case ast.Stmt:
		return x == nil
	}
	return false
}

// boxedArg finds the first concrete, non-pointer-shaped argument passed to
// an interface parameter: an allocation when the value escapes to the
// heap, which hot paths must assume.
func boxedArg(info *types.Info, call *ast.CallExpr) (ast.Expr, string, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil, "", false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return nil, "", false
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // args... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			// Already an interface, or pointer-shaped: the interface word
			// holds the value without a heap copy.
			continue
		}
		return arg, types.ExprString(call.Fun), true
	}
	return nil, "", false
}
