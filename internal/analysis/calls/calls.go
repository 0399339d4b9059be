// Package calls resolves and walks the call sites of a function body, for
// the call graph and the analyzers that police calls (hotalloc,
// httpguard).
package calls

import (
	"go/ast"
	"go/types"
)

// Callee resolves a call's static callee function, descending through
// selector and plain identifiers. A call to a generic function or to a
// method of a generic type resolves to its declaration, the function the
// call graph has a node for. Calls through func-typed values return nil.
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
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// Walk visits every CallExpr under n in source order, without descending
// into function literals (their bodies are separate functions with their
// own control flow).
func Walk(n ast.Node, visit func(*ast.CallExpr)) {
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
