// Package httpguard enforces xicd's HTTP-handler hygiene. A handler is any
// function or function literal in scope whose signature carries both an
// http.ResponseWriter and an *http.Request; four rules apply:
//
//   - Exactly one status per path. The summary layer's path-sensitive
//     status count (see internal/analysis/summary) runs over the handler's
//     CFG: a path that can write a second status (double WriteHeader,
//     http.Error after writeJSON, ...) and a path that can return without
//     writing anything are both findings. Helpers the handler delegates to
//     are folded in through their summaries, including the conditional
//     `if !s.decodeJSON(w, r, &req) { return }` idiom, which summarizes as
//     writes-exactly-once-on-false.
//
//   - Bounded request bodies. Every use of r.Body must go through
//     http.MaxBytesReader (Close is free, net/http closes the body after
//     the handler anyway); a body value captured by a function literal or
//     stored through a selector escapes the handler's lifetime, where the
//     server's auto-close races whatever reads it.
//
//   - Error statuses through the taxonomy. A hand-rolled 4xx/5xx constant
//     fed to WriteHeader or http.Error bypasses xic.HTTPStatus, the single
//     place error→status mapping is allowed to live.
//
//   - Request-context propagation. A handler must not manufacture
//     context.Background()/TODO(), and must not call a context-less module
//     helper whose summary says it transitively reaches context-taking
//     module code (severing cancellation on the way to the engine).
//
// Scoped to cmd/xicd (and the fixture package "httpguard"); the analyzer
// is the gate the distributed-xicd handlers will grow behind.
package httpguard

import (
	"go/ast"
	"go/constant"
	"go/types"

	"xic/internal/analysis"
	"xic/internal/analysis/calls"
	"xic/internal/analysis/cfg"
	"xic/internal/analysis/summary"
)

var scopedPaths = map[string]bool{"xic/cmd/xicd": true, "httpguard": true}

type httpguard struct {
	sh *summary.Shared
}

// New constructs a standalone analyzer with its own call graph.
func New() *analysis.Analyzer { return NewShared(summary.NewShared()) }

// NewShared constructs the analyzer over a shared call graph.
func NewShared(sh *summary.Shared) *analysis.Analyzer {
	h := &httpguard{sh: sh}
	return &analysis.Analyzer{
		Name:    "httpguard",
		Doc:     "enforces handler hygiene in cmd/xicd: exactly one status write per path, MaxBytesReader-bounded bodies, xic.HTTPStatus error mapping, and request-context propagation",
		Collect: h.collect,
		Run:     h.run,
	}
}

func (h *httpguard) collect(pass *analysis.Pass) error {
	h.sh.Add(pass.Files, pass.Pkg, pass.Info)
	return nil
}

// handler is one request-carrying function (decl or literal) found in
// scope. terminal marks a handler proper — ResponseWriter plus *Request
// and no results, the http.HandlerFunc shape — which the status-path and
// context rules apply to; a helper that returns a value (decodeJSON-style,
// writing only on failure) is exempt from those but still owes the body
// rules for its *Request.
type handler struct {
	name     string
	body     *ast.BlockStmt
	w, r     *types.Var
	terminal bool
}

func (h *httpguard) run(pass *analysis.Pass) error {
	if !scopedPaths[pass.Pkg.Path()] && pass.Pkg.Name() != "httpguard" {
		return nil
	}
	_, facts := h.sh.Resolve()

	var handlers []handler
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				sig := fn.Type().(*types.Signature)
				w := summary.ResponseWriterParam(fn)
				r := summary.RequestParam(fn)
				if r != nil {
					handlers = append(handlers, handler{
						name:     fn.Name(),
						body:     fd.Body,
						w:        w,
						r:        r,
						terminal: w != nil && sig.Results().Len() == 0,
					})
				}
			}
			// Status-constant hygiene applies to every function in scope,
			// handler or helper.
			h.checkStatusConstants(pass, fd.Body)
		}
		// Handler-shaped literals (mux registrations, middleware closures).
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			sig, ok := pass.Info.Types[lit].Type.(*types.Signature)
			if !ok {
				return true
			}
			w := summary.ResponseWriterOf(sig)
			r := summary.RequestOf(sig)
			if r != nil && w != nil {
				handlers = append(handlers, handler{
					name:     "handler literal",
					body:     lit.Body,
					w:        w,
					r:        r,
					terminal: sig.Results().Len() == 0,
				})
			}
			return true
		})
	}

	for _, hd := range handlers {
		if hd.terminal {
			h.checkStatusPaths(pass, facts, hd)
			h.checkContext(pass, facts, hd)
		}
		h.checkBodyLimit(pass, hd)
	}
	return nil
}

// checkStatusPaths runs the path-sensitive status count over one handler.
func (h *httpguard) checkStatusPaths(pass *analysis.Pass, facts *summary.Set, hd handler) {
	res := summary.AnalyzeStatus(pass.Info, cfg.New(hd.body, pass.Info), hd.w, facts.StatusOf)
	for _, d := range res.Doubles {
		pass.Reportf(d.Pos, "handler may write a second status code here (%s); every path must write exactly one", d.What)
	}
	if res.MayMissStatus() {
		pass.Reportf(hd.body.Pos(), "some path through this handler writes no status code")
	}
}

// checkStatusConstants flags hand-rolled 4xx/5xx constants fed straight to
// WriteHeader or http.Error.
func (h *httpguard) checkStatusConstants(pass *analysis.Pass, body *ast.BlockStmt) {
	calls.Walk(body, func(call *ast.CallExpr) {
		var codeArg ast.Expr
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch {
			case sel.Sel.Name == "WriteHeader" && len(call.Args) == 1 && isResponseWriterExpr(pass.Info, sel.X):
				codeArg = call.Args[0]
			case sel.Sel.Name == "Error" && len(call.Args) == 3 && isPkgFunc(pass.Info, sel, "net/http", "Error"):
				codeArg = call.Args[2]
			}
		}
		if codeArg == nil {
			return
		}
		tv, ok := pass.Info.Types[codeArg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return
		}
		code, ok := constant.Int64Val(tv.Value)
		if !ok || code < 400 {
			return
		}
		pass.Reportf(call.Pos(), "hand-rolled error status %d; map errors through xic.HTTPStatus so the error taxonomy owns the code", code)
	})
	// Literals inside body were walked too (WalkCalls skips them); cover
	// them explicitly so middleware closures get the same rule.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			h.checkStatusConstants(pass, lit.Body)
			return false
		}
		return true
	})
}

func isResponseWriterExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

func isPkgFunc(info *types.Info, sel *ast.SelectorExpr, path, name string) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name
}

// checkBodyLimit enforces bounded, non-escaping request bodies.
func (h *httpguard) checkBodyLimit(pass *analysis.Pass, hd handler) {
	// Collect the idents aliasing the raw body: `body := r.Body`,
	// `var body io.Reader = r.Body`.
	tainted := make(map[types.Object]bool)
	ast.Inspect(hd.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i < len(x.Lhs) && h.isRawBody(pass, rhs, hd.r, tainted) {
					if id, ok := x.Lhs[i].(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							tainted[obj] = true
						} else if obj := pass.Info.Uses[id]; obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if i < len(x.Names) && h.isRawBody(pass, v, hd.r, tainted) {
					if obj := pass.Info.Defs[x.Names[i]]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})

	parents := parentMap(hd.body)
	ast.Inspect(hd.body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || !h.isRawBodyLeaf(pass, e, hd.r, tainted) {
			return true
		}
		h.classifyBodyUse(pass, parents, e)
		return false
	})
}

// isRawBody reports whether e evaluates to the unbounded request body: the
// r.Body selector, a tainted alias, or a plain conversion of either.
func (h *httpguard) isRawBody(pass *analysis.Pass, e ast.Expr, r *types.Var, tainted map[types.Object]bool) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return h.isRawBody(pass, call.Args[0], r, tainted)
		}
	}
	return h.isRawBodyLeaf(pass, e, r, tainted)
}

// isRawBodyLeaf matches exactly `r.Body` or a tainted ident.
func (h *httpguard) isRawBodyLeaf(pass *analysis.Pass, e ast.Expr, r *types.Var, tainted map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name != "Body" {
			return false
		}
		id, ok := ast.Unparen(x.X).(*ast.Ident)
		return ok && pass.Info.Uses[id] == r
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		return obj != nil && tainted[obj]
	}
	return false
}

// classifyBodyUse decides what one occurrence of the raw body means.
func (h *httpguard) classifyBodyUse(pass *analysis.Pass, parents map[ast.Node]ast.Node, occ ast.Expr) {
	// Escape: captured by a nested function literal.
	for p := parents[ast.Node(occ)]; p != nil; p = parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			pass.Reportf(occ.Pos(), "request body escapes the handler (captured by a function literal); the server closes it when the handler returns")
			return
		}
	}
	p := parents[ast.Node(occ)]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		break
	}
	switch x := p.(type) {
	case *ast.SelectorExpr:
		// r.Body.Close() — always allowed.
		if x.Sel.Name == "Close" {
			return
		}
	case *ast.CallExpr:
		fun := ast.Unparen(x.Fun)
		if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
			// Conversion: the wrapped value flows on; the assignment rules
			// taint the destination, so nothing to do at the conversion.
			return
		}
		if sel, ok := fun.(*ast.SelectorExpr); ok && isPkgFunc(pass.Info, sel, "net/http", "MaxBytesReader") {
			return
		}
		pass.Reportf(occ.Pos(), "request body is used without an http.MaxBytesReader limit; a hostile client can stream unbounded input")
		return
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				pass.Reportf(occ.Pos(), "request body escapes the handler (stored outside handler locals); the server closes it when the handler returns")
				return
			}
		}
		return // alias assignment: the taint rules track the target
	case *ast.ValueSpec:
		return
	case *ast.KeyValueExpr, *ast.CompositeLit:
		pass.Reportf(occ.Pos(), "request body escapes the handler (stored outside handler locals); the server closes it when the handler returns")
		return
	}
	pass.Reportf(occ.Pos(), "request body is used without an http.MaxBytesReader limit; a hostile client can stream unbounded input")
}

// checkContext enforces request-context propagation in one handler.
func (h *httpguard) checkContext(pass *analysis.Pass, facts *summary.Set, hd handler) {
	roots := []ast.Node{hd.body}
	ast.Inspect(hd.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			roots = append(roots, lit.Body)
		}
		return true
	})
	for _, root := range roots {
		calls.Walk(root, func(call *ast.CallExpr) {
			for _, arg := range call.Args {
				if ac, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(ac.Fun).(*ast.SelectorExpr); ok {
						if isPkgFunc(pass.Info, sel, "context", "Background") || isPkgFunc(pass.Info, sel, "context", "TODO") {
							pass.Reportf(arg.Pos(), "handler manufactures %s; derive the context from the request so cancellation propagates", types.ExprString(arg))
						}
					}
				}
			}
			callee := calls.Callee(pass.Info, call)
			if callee == nil || !facts.Known(callee) {
				return
			}
			f := facts.Of(callee)
			if !f.HasCtxParam && f.ReachesCtxCall && f.CtxCallee != nil {
				pass.Reportf(call.Pos(), "call to %s drops the request context on its way to %s (which takes a ctx); thread the context through", callee.Name(), f.CtxCallee.Name())
			}
		})
	}
}

// parentMap records each node's parent under root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
