// Status-write analysis: a path-sensitive count of HTTP status writes over
// one function body's CFG. The count lattice is a three-bit mask of
// achievable write counts {zero, one, many}; joins are unions, so the
// fixpoint enumerates every path's possibility. Branch conditions of the
// form `if !f(w, ...)` where f's summary is "writes on false" refine the
// mask per successor edge, which is what lets the xicd decode-helper idiom
//
//	if !s.decodeJSON(w, r, &req) {
//		return // decodeJSON already wrote the error status
//	}
//
// come out as exactly-one-status on every path.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"xic/internal/analysis/callgraph"
	"xic/internal/analysis/calls"
	"xic/internal/analysis/cfg"
)

// Count-mask bits: which total write counts are achievable.
const (
	countZero uint8 = 1 << iota
	countOne
	countMany
)

// shiftCount applies one more write to every achievable count.
func shiftCount(m uint8) uint8 {
	var out uint8
	if m&countZero != 0 {
		out |= countOne
	}
	if m&(countOne|countMany) != 0 {
		out |= countMany
	}
	return out
}

// StatusResult is the outcome of AnalyzeStatus.
type StatusResult struct {
	// ExitMask is the union of achievable write counts at function exit
	// (zero when the exit is unreachable).
	ExitMask uint8
	// Doubles are explicit status writes reachable with a count already
	// ≥ 1: second-write candidates.
	Doubles []Site

	falseMask, trueMask uint8 // unions at `return false` / `return true`
	uncorrelated        bool  // a bool-returning path returned a non-literal
	sawReturn           bool
}

// MayMissStatus reports whether some path reaches the exit without writing
// any status.
func (r *StatusResult) MayMissStatus() bool {
	return r.ExitMask&countZero != 0 && r.ExitMask != 0
}

// classify maps the analysis outcome to the summary enum.
func (r *StatusResult) classify(returnsBool bool) WriteStatus {
	if len(r.Doubles) > 0 {
		return WritesMaybe
	}
	if returnsBool && r.sawReturn && !r.uncorrelated {
		if r.falseMask == countOne && r.trueMask == countZero {
			return WritesOnFalse
		}
		if r.trueMask == countOne && r.falseMask == countZero {
			return WritesOnTrue
		}
	}
	switch r.ExitMask {
	case 0, countZero:
		return WritesNever
	case countOne:
		return WritesAlways
	}
	return WritesMaybe
}

// callEffect classifies what one call does to the status count.
type callEffect int

const (
	effectNone callEffect = iota
	// effectExplicit is a definite status write: WriteHeader, http.Error
	// and friends, a module callee that always writes, or a handler-typed
	// dynamic call handed the ResponseWriter.
	effectExplicit
	// effectImplicit is a body write: the first one commits an implicit
	// 200, later ones are free.
	effectImplicit
	// effectMaybe writes zero or one status depending on the callee's path.
	effectMaybe
	// effectOnFalse / effectOnTrue are conditional writers, refined per
	// branch when they appear as an if condition.
	effectOnFalse
	effectOnTrue
)

// statusAnalysis carries one AnalyzeStatus run.
type statusAnalysis struct {
	info   *types.Info
	w      types.Object
	lookup func(*types.Func) (WriteStatus, bool)

	in      map[*cfg.Block]uint8
	seen    map[*cfg.Block]bool
	doubles map[token.Pos]Site
	returns map[*ast.ReturnStmt]uint8
	res     *StatusResult
}

// AnalyzeStatus runs the status-count analysis over one body. w is the
// body's http.ResponseWriter parameter object; lookup resolves a module
// callee's summarized status behavior (ok=false for non-module callees).
func AnalyzeStatus(info *types.Info, g *cfg.Graph, w types.Object, lookup func(*types.Func) (WriteStatus, bool)) *StatusResult {
	a := &statusAnalysis{
		info:    info,
		w:       w,
		lookup:  lookup,
		in:      make(map[*cfg.Block]uint8),
		seen:    make(map[*cfg.Block]bool),
		doubles: make(map[token.Pos]Site),
		returns: make(map[*ast.ReturnStmt]uint8),
		res:     &StatusResult{},
	}
	a.in[g.Entry] = countZero
	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		outs := a.transfer(b)
		for succ, mask := range outs {
			merged := a.in[succ] | mask
			if merged != a.in[succ] || !a.seen[succ] {
				a.in[succ] = merged
				a.seen[succ] = true
				work = append(work, succ)
			}
		}
		a.seen[b] = true
	}

	a.res.ExitMask = a.in[g.Exit]
	for ret, mask := range a.returns {
		a.res.sawReturn = true
		switch literalBool(ret) {
		case "true":
			a.res.trueMask |= mask
		case "false":
			a.res.falseMask |= mask
		default:
			a.res.uncorrelated = true
		}
	}
	for _, s := range a.doubles {
		a.res.Doubles = append(a.res.Doubles, s)
	}
	return a.res
}

// transfer runs one block, returning the out-mask per successor (branch
// refinement makes these differ for conditional-writer if conditions).
func (a *statusAnalysis) transfer(b *cfg.Block) map[*cfg.Block]uint8 {
	mask := a.in[b]
	for i, n := range b.Nodes {
		// A conditional-writer call as the block-ending if condition gets
		// per-edge treatment instead of an in-line effect.
		if i == len(b.Nodes)-1 {
			if call, neg, eff, ok := a.condWriter(n); ok {
				return a.branchMasks(b, mask, call, neg, eff)
			}
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			a.returns[ret] |= mask
		}
		mask = a.applyNode(n, mask)
	}
	outs := make(map[*cfg.Block]uint8, len(b.Succs))
	for _, s := range b.Succs {
		outs[s] = mask
	}
	return outs
}

// applyNode applies every call under one CFG node in source order.
func (a *statusAnalysis) applyNode(n ast.Node, mask uint8) uint8 {
	// A range head node is the whole RangeStmt, body included; the body's
	// own blocks apply its effects, so only the range expression belongs
	// to the head.
	if r, ok := n.(*ast.RangeStmt); ok {
		n = r.X
	}
	calls.Walk(n, func(call *ast.CallExpr) {
		switch a.effectOf(call) {
		case effectExplicit:
			if mask&(countOne|countMany) != 0 {
				a.doubles[call.Pos()] = Site{Pos: call.Pos(), What: types.ExprString(call.Fun)}
			}
			mask = shiftCount(mask)
		case effectImplicit:
			if mask&countZero != 0 {
				mask = (mask &^ countZero) | countOne
			}
		case effectMaybe, effectOnFalse, effectOnTrue:
			// Unrefined conditional writers degrade to maybe.
			mask |= shiftCount(mask)
		}
	})
	return mask
}

// condWriter recognizes an if condition of the form `f(w,...)` or
// `!f(w,...)` whose callee is a conditional status writer.
func (a *statusAnalysis) condWriter(n ast.Node) (*ast.CallExpr, bool, callEffect, bool) {
	expr, ok := n.(ast.Expr)
	if !ok {
		return nil, false, effectNone, false
	}
	e := ast.Unparen(expr)
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		neg = true
		e = ast.Unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, false, effectNone, false
	}
	eff := a.effectOf(call)
	if eff != effectOnFalse && eff != effectOnTrue {
		return nil, false, effectNone, false
	}
	return call, neg, eff, true
}

// branchMasks computes per-successor masks for a conditional-writer if
// condition: the branch where the callee's writing result holds gets the
// extra write.
func (a *statusAnalysis) branchMasks(b *cfg.Block, mask uint8, call *ast.CallExpr, neg bool, eff callEffect) map[*cfg.Block]uint8 {
	for _, arg := range call.Args {
		mask = a.applyNode(arg, mask)
	}
	wrote := shiftCount(mask)
	if mask&(countOne|countMany) != 0 {
		a.doubles[call.Pos()] = Site{Pos: call.Pos(), What: types.ExprString(call.Fun)}
	}
	// The builder wires the true branch to the (unique, fresh) "if.then"
	// block; every other successor is the false side.
	// eff OnFalse: callee wrote iff it returned false.
	// cond `!f(...)`: then-branch ⇔ f returned false.
	thenWrote := (eff == effectOnFalse) == neg
	outs := make(map[*cfg.Block]uint8, len(b.Succs))
	for _, s := range b.Succs {
		onThen := s.Kind == "if.then"
		if onThen == thenWrote {
			outs[s] = wrote
		} else {
			outs[s] = mask
		}
	}
	return outs
}

// effectOf classifies one call against the ResponseWriter parameter.
func (a *statusAnalysis) effectOf(call *ast.CallExpr) callEffect {
	if !mentionsObj(a.info, call, a.w) {
		return effectNone
	}
	// Method directly on w: WriteHeader / Write; Header and friends free.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && a.info.Uses[id] == a.w {
			switch sel.Sel.Name {
			case "WriteHeader":
				return effectExplicit
			case "Write":
				return effectImplicit
			default:
				return effectNone
			}
		}
	}
	callee := calls.Callee(a.info, call)
	if callee == nil {
		// A func value (or a returned handler) invoked with w: trust it to
		// write its one status.
		return effectExplicit
	}
	if st, ok := a.lookup(callee); ok {
		switch st {
		case WritesAlways:
			return effectExplicit
		case WritesOnFalse:
			return effectOnFalse
		case WritesOnTrue:
			return effectOnTrue
		case WritesMaybe:
			return effectMaybe
		}
		return effectNone
	}
	return externalEffect(callee)
}

// externalEffect classifies non-module callees that receive w.
func externalEffect(fn *types.Func) callEffect {
	pkg := fn.Pkg()
	if pkg == nil {
		return effectNone
	}
	switch pkg.Path() {
	case "net/http":
		// Methods of http.Header (w.Header().Set(...)) touch headers only.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Name() == "Header" {
				return effectNone
			}
		}
		switch fn.Name() {
		case "Error", "NotFound", "Redirect", "ServeFile", "ServeFileFS", "ServeContent":
			return effectExplicit
		case "MaxBytesReader":
			// Wraps the body; writes nothing until a later read overflows.
			return effectNone
		}
		return effectImplicit
	}
	// Any other external call handed the writer (fmt.Fprintf, io.Copy,
	// json.NewEncoder(w).Encode, template execution, ...) is a body write:
	// the first one commits the implicit 200.
	return effectImplicit
}

// mentionsObj reports whether obj is referenced anywhere under n. Function
// literals are excluded (their bodies run later, if at all), and so are
// http.MaxBytesReader calls: the wrapper consumes w only to annotate its
// limit error, so io.ReadAll(http.MaxBytesReader(w, r.Body, n)) is a body
// read, not a body write.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && isMaxBytesReader(info, call) {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isMaxBytesReader(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "MaxBytesReader"
}

// literalBool classifies a return statement's single result.
func literalBool(ret *ast.ReturnStmt) string {
	if len(ret.Results) != 1 {
		return ""
	}
	if id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident); ok {
		if id.Name == "true" || id.Name == "false" {
			return id.Name
		}
	}
	return ""
}

// ResponseWriterParam returns fn's http.ResponseWriter parameter, if any.
func ResponseWriterParam(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return ResponseWriterOf(sig)
}

// ResponseWriterOf returns the signature's http.ResponseWriter parameter.
func ResponseWriterOf(sig *types.Signature) *types.Var {
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isResponseWriter(p.Type()) {
			return p
		}
	}
	return nil
}

func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

// RequestParam returns fn's *http.Request parameter, if any.
func RequestParam(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return RequestOf(sig)
}

// RequestOf returns the signature's *http.Request parameter.
func RequestOf(sig *types.Signature) *types.Var {
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		ptr, ok := p.Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request" {
			return p
		}
	}
	return nil
}

// solveStatus fills in the status fact of one node after its callees'.
func (s *Set) solveStatus(n *callgraph.Node) {
	f := s.facts[n.Func]
	w := ResponseWriterParam(n.Func)
	if w == nil {
		f.Status = WritesNever
		return
	}
	res := AnalyzeStatus(n.Info, cfg.New(n.Decl.Body, n.Info), w, s.StatusOf)
	f.Status = res.classify(returnsBool(n.Func))
}

// StatusOf returns fn's status fact, with ok=false for non-module
// functions. It is the lookup AnalyzeStatus wants.
func (s *Set) StatusOf(fn *types.Func) (WriteStatus, bool) {
	f, ok := s.facts[fn]
	if !ok {
		return WritesNever, false
	}
	return f.Status, true
}

func returnsBool(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}
