// Package callgraph builds a type-based call graph of the module for the
// interprocedural analyzers (hotalloc, httpguard). It is
// deliberately simple — no points-to analysis — but sound enough for the
// vet gates it powers:
//
//   - Direct calls (functions and methods with a static callee) produce an
//     edge when the callee is declared in one of the added packages.
//   - Calls through an interface produce an edge to the corresponding
//     concrete method of every in-module named type that implements the
//     interface (method-set resolution via types.Implements), because any
//     of them may be the dynamic callee.
//   - Function literals are not separate nodes: their bodies fold into the
//     enclosing declared function, matching how the analyzers attribute
//     findings. Literals in package-level initializers have no enclosing
//     function and are dropped.
//   - Calls through plain func values (parameters, fields) and calls to
//     functions outside the added packages produce no edge; package
//     summary classifies external callees itself (e.g. "fmt allocates").
//
// Finalize condenses the graph into strongly connected components (Tarjan)
// in reverse topological order — callees before callers — which is exactly
// the order a bottom-up summary fixpoint wants (see package summary).
package callgraph

import (
	"go/ast"
	"go/types"

	"xic/internal/analysis/calls"
)

// Node is one declared function or method of the module.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	// Bodies is the declared body plus every function literal lexically
	// inside it, each visited once.
	Bodies []*ast.BlockStmt
	Info   *types.Info

	// Calls are the resolved in-module callees (direct and via interface).
	Calls []Edge
}

// Edge is one resolved call site.
type Edge struct {
	Callee *Node
}

// Graph is the finalized call graph.
type Graph struct {
	// Nodes maps each declared function to its node. Because test-variant
	// packages re-typecheck the same sources into distinct object worlds,
	// the same source function may appear under two *types.Func keys; the
	// graph keeps both, each with edges resolved in its own world.
	Nodes map[*types.Func]*Node
	// SCCs lists strongly connected components in reverse topological
	// order: every callee's component appears before its callers'.
	SCCs [][]*Node
}

// ifaceSite is an interface-method call awaiting method-set resolution.
type ifaceSite struct {
	caller *Node
	iface  *types.Interface
	method string
}

// Builder accumulates packages (one AddPackage per package, typically from
// an analyzer's Collect phase) and resolves the graph in Finalize.
type Builder struct {
	nodes map[*types.Func]*Node
	added map[*types.Package]bool
	named []*types.Named
	sites []ifaceSite
	// pending direct calls: resolved against nodes in Finalize, so call
	// order between packages doesn't matter.
	direct []directSite
}

type directSite struct {
	caller *Node
	callee *types.Func
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		nodes: make(map[*types.Func]*Node),
		added: make(map[*types.Package]bool),
	}
}

// AddPackage registers one type-checked package's functions and call
// sites. Adding the same *types.Package twice is a no-op.
func (b *Builder) AddPackage(files []*ast.File, pkg *types.Package, info *types.Info) {
	if b.added[pkg] {
		return
	}
	b.added[pkg] = true

	// Named types declared here feed interface method-set resolution.
	for _, obj := range info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			b.named = append(b.named, named)
		}
	}

	// One node per FuncDecl; literals fold into the enclosing decl.
	decls := make(map[*types.Func]*Node)
	for _, file := range files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: fn, Decl: fd, Info: info}
			n.Bodies = append(n.Bodies, fd.Body)
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					n.Bodies = append(n.Bodies, lit.Body)
				}
				return true
			})
			b.nodes[fn] = n
			decls[fn] = n
		}
	}

	for _, n := range decls {
		for _, body := range n.Bodies {
			b.collectCalls(n, body)
		}
	}
}

// collectCalls records every call site in body (literals excluded — they
// are separate entries of n.Bodies).
func (b *Builder) collectCalls(n *Node, body *ast.BlockStmt) {
	calls.Walk(body, func(call *ast.CallExpr) {
		// Conversions and builtins are not calls.
		if tv, ok := n.Info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := n.Info.Uses[id].(*types.Builtin); isBuiltin {
				return
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := n.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
					fn, _ := n.Info.Uses[sel.Sel].(*types.Func)
					if fn != nil {
						b.sites = append(b.sites, ifaceSite{caller: n, iface: iface, method: fn.Name()})
					}
					return
				}
			}
		}
		if fn := calls.Callee(n.Info, call); fn != nil {
			b.direct = append(b.direct, directSite{caller: n, callee: fn})
		}
	})
}

// Finalize resolves every recorded call site and computes the SCC
// condensation. The builder must not be reused afterwards.
func (b *Builder) Finalize() *Graph {
	g := &Graph{Nodes: b.nodes}

	for _, d := range b.direct {
		if callee, ok := b.nodes[d.callee]; ok {
			d.caller.Calls = append(d.caller.Calls, Edge{Callee: callee})
		}
	}

	for _, s := range b.sites {
		for _, named := range b.named {
			var impl types.Type = named
			if !types.Implements(impl, s.iface) {
				impl = types.NewPointer(named)
				if !types.Implements(impl, s.iface) {
					continue
				}
			}
			sel := types.NewMethodSet(impl).Lookup(named.Obj().Pkg(), s.method)
			if sel == nil {
				continue
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			if callee, ok := b.nodes[fn]; ok {
				s.caller.Calls = append(s.caller.Calls, Edge{Callee: callee})
			}
		}
	}

	g.condense()
	return g
}

// condense runs Tarjan's SCC algorithm (iterative, so deep call chains in
// generated code can't overflow the stack). Tarjan emits components in
// reverse topological order of the condensation — exactly the bottom-up
// order summary fixpoints need.
func (g *Graph) condense() {
	index := make(map[*Node]int)
	lowlink := make(map[*Node]int)
	onStack := make(map[*Node]bool)
	var stack []*Node
	next := 0

	type frame struct {
		n    *Node
		edge int
	}

	var visit func(root *Node)
	visit = func(root *Node) {
		frames := []frame{{n: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n := f.n
			if f.edge == 0 {
				index[n] = next
				lowlink[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.edge < len(n.Calls) {
				callee := n.Calls[f.edge].Callee
				f.edge++
				if _, seen := index[callee]; !seen {
					frames = append(frames, frame{n: callee})
					advanced = true
					break
				}
				if onStack[callee] && index[callee] < lowlink[n] {
					lowlink[n] = index[callee]
				}
			}
			if advanced {
				continue
			}
			if lowlink[n] == index[n] {
				var scc []*Node
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				g.SCCs = append(g.SCCs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].n
				if lowlink[n] < lowlink[parent] {
					lowlink[parent] = lowlink[n]
				}
			}
		}
	}

	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
}
