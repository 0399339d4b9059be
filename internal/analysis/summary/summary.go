// Package summary computes per-function facts over the callgraph for the
// interprocedural analyzers: does a function allocate on the heap, how
// many HTTP status codes does it write, and does it reach context-taking
// module calls. Facts are solved bottom-up over the SCC condensation
// (callees before callers), iterating inside each component until
// recursion stabilizes, so a caller's fact always sees its callees' final
// facts.
//
// The fact model is deliberately calibrated for the vet gates, not for
// escape-analysis truth:
//
//   - Allocation: explicit sites (new, make, &T{...}, slice/map literals,
//     append, string building, closures, go statements) plus calls into a
//     curated set of allocating stdlib packages (fmt, errors, strings, ...).
//     math/big *methods* are deliberately not allocation — they write into
//     their receiver, and steady-state reuse amortizes growth — but the
//     big.NewInt/NewRat constructors are. Unknown external calls and
//     dynamic func-value calls are assumed clean: the hot-path contract is
//     about the module's own allocation discipline.
//
//   - Status writes: for functions with an http.ResponseWriter parameter, a
//     path-sensitive count of status writes (explicit WriteHeader plus the
//     implicit 200 of a first body write), correlated with boolean results
//     so the `if !s.decodeJSON(w, r, &v) { return }` idiom summarizes as
//     "writes exactly once, on the false branch only".
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xic/internal/analysis/callgraph"
	"xic/internal/analysis/calls"
)

// WriteStatus classifies how many HTTP status codes a function writes on
// its ResponseWriter parameter.
type WriteStatus int

const (
	// WritesNever: no path writes a status (or no ResponseWriter param).
	WritesNever WriteStatus = iota
	// WritesAlways: every path writes exactly one status.
	WritesAlways
	// WritesOnFalse: returns bool; false-returning paths write exactly one
	// status, true-returning paths write none.
	WritesOnFalse
	// WritesOnTrue: the mirror image of WritesOnFalse.
	WritesOnTrue
	// WritesMaybe: anything else (0 or 1 depending on path, or 2+).
	WritesMaybe
)

// Facts are the interprocedural summary of one function.
type Facts struct {
	// Allocates: some path allocates on the heap. AllocWhy describes the
	// direct reason; AllocVia, when non-nil, is the callee the fact was
	// inherited from (chase .Via for the chain).
	Allocates bool
	AllocWhy  string
	AllocVia  *types.Func

	// Status summarizes ResponseWriter status writes.
	Status WriteStatus

	// HasCtxParam: the signature takes a context.Context.
	HasCtxParam bool
	// ReachesCtxCall: the function (transitively, through module functions
	// that do not themselves take a context) calls a module function with a
	// context parameter. A true fact on a ctx-less function means calling
	// it severs context propagation to whatever it reaches; CtxCallee is
	// one such reached function.
	ReachesCtxCall bool
	CtxCallee      *types.Func
}

// Set holds the computed facts of every module function.
type Set struct {
	facts map[*types.Func]*Facts
}

var noFacts = &Facts{}

// Known reports whether fn is a module function with computed facts.
func (s *Set) Known(fn *types.Func) bool {
	_, ok := s.facts[fn]
	return ok
}

// Of returns the facts of fn; unknown functions get the zero summary.
func (s *Set) Of(fn *types.Func) *Facts {
	if f, ok := s.facts[fn]; ok {
		return f
	}
	return noFacts
}

// AllocChain renders the inheritance chain of fn's allocation fact for
// diagnostics: "f allocates (calls g: calls h: new(big.Int))".
func (s *Set) AllocChain(fn *types.Func) string {
	var parts []string
	for depth := 0; fn != nil && depth < 4; depth++ {
		f := s.Of(fn)
		if !f.Allocates {
			break
		}
		if f.AllocVia == nil {
			parts = append(parts, f.AllocWhy)
			break
		}
		parts = append(parts, "calls "+f.AllocVia.Name())
		fn = f.AllocVia
	}
	return strings.Join(parts, ": ")
}

// Compute solves every fact bottom-up over the graph's SCC condensation.
func Compute(g *callgraph.Graph) *Set {
	s := &Set{facts: make(map[*types.Func]*Facts, len(g.Nodes))}
	for fn, n := range g.Nodes {
		s.facts[fn] = directFacts(n)
	}
	// SCCs are emitted callees-first, so one pass with an inner loop per
	// component (for recursion) reaches the fixpoint.
	for _, scc := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if s.propagate(n) {
					changed = true
				}
			}
		}
		for _, n := range scc {
			s.solveStatus(n)
		}
	}
	return s
}

// propagate folds callee facts into n's facts; reports whether anything
// changed (for the intra-SCC loop).
func (s *Set) propagate(n *callgraph.Node) bool {
	f := s.facts[n.Func]
	changed := false
	for _, e := range n.Calls {
		cf := s.facts[e.Callee.Func]
		if cf.Allocates && !f.Allocates {
			f.Allocates = true
			f.AllocVia = e.Callee.Func
			changed = true
		}
		// Context reachability travels only through ctx-less callees: a
		// callee that takes a context is itself the direct evidence, and a
		// caller passing a context on is not severing anything.
		if !f.ReachesCtxCall {
			if cf.HasCtxParam {
				f.ReachesCtxCall = true
				f.CtxCallee = e.Callee.Func
				changed = true
			} else if cf.ReachesCtxCall {
				f.ReachesCtxCall = true
				f.CtxCallee = cf.CtxCallee
				changed = true
			}
		}
	}
	return changed
}

// directFacts computes the call-free part of a node's summary.
func directFacts(n *callgraph.Node) *Facts {
	f := &Facts{HasCtxParam: hasCtxParam(n.Func)}
	for _, body := range n.Bodies {
		if !f.Allocates {
			if sites := AllocSites(n.Info, body); len(sites) > 0 {
				f.Allocates = true
				f.AllocWhy = sites[0].What
			}
		}
		calls.Walk(body, func(call *ast.CallExpr) {
			callee := calls.Callee(n.Info, call)
			if callee == nil {
				return
			}
			if !f.Allocates {
				if why, ok := ExternalAllocs(callee); ok {
					f.Allocates = true
					f.AllocWhy = why
				}
			}
		})
	}
	return f
}

func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// Site is one allocation site, for diagnostics.
type Site struct {
	Pos  token.Pos
	What string
}

// AllocSites returns the direct heap-allocation sites under root, without
// descending into function literals (each literal is itself one site: the
// closure value). Interprocedural allocation — calls into allocating
// functions — is the summary fixpoint's job, not this walker's.
func AllocSites(info *types.Info, root ast.Node) []Site {
	var sites []Site
	add := func(pos token.Pos, what string) {
		sites = append(sites, Site{Pos: pos, What: what})
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			add(x.Pos(), "function literal (closure allocation)")
			return false
		case *ast.GoStmt:
			add(x.Pos(), "go statement (new goroutine)")
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "&composite literal")
				}
			}
		case *ast.CompositeLit:
			if info != nil {
				if tv, ok := info.Types[x]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Slice:
						add(x.Pos(), "slice literal")
					case *types.Map:
						add(x.Pos(), "map literal")
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && info != nil {
				if tv, ok := info.Types[x]; ok && isString(tv.Type) {
					add(x.Pos(), "string concatenation")
				}
			}
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			if info != nil {
				if tv, ok := info.Types[fun]; ok && tv.IsType() {
					if what, bad := allocConversion(info, x); bad {
						add(x.Pos(), what)
					}
					return true
				}
			}
			if id, ok := fun.(*ast.Ident); ok && info != nil {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "new":
						add(x.Pos(), "new("+types.ExprString(x.Args[0])+")")
					case "make":
						add(x.Pos(), "make("+types.ExprString(x.Args[0])+")")
					case "append":
						add(x.Pos(), "append may grow its backing array")
					}
				}
			}
		}
		return true
	})
	return sites
}

// allocConversion reports conversions that copy memory: string <-> []byte,
// string <-> []rune.
func allocConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	dst, ok := info.Types[ast.Expr(call)]
	if !ok {
		return "", false
	}
	src, ok := info.Types[call.Args[0]]
	if !ok {
		return "", false
	}
	d, s := dst.Type.Underlying(), src.Type.Underlying()
	switch {
	case isString(d) && isByteOrRuneSlice(s):
		return "[]byte/[]rune to string conversion", true
	case isByteOrRuneSlice(d) && isString(s):
		return "string to []byte/[]rune conversion", true
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// allocatingPkgs is the curated set of stdlib packages whose exported
// functions allocate as a matter of course. Coarse on purpose: a hot path
// has no business calling into any of these, and a justified exception
// carries an //xic:ignore with its reason.
var allocatingPkgs = map[string]bool{
	"fmt": true, "log": true, "errors": true, "strings": true,
	"strconv": true, "bytes": true, "regexp": true, "sort": true,
	"encoding/json": true, "encoding/xml": true, "encoding/base64": true,
	"io": true, "bufio": true, "os": true, "reflect": true,
}

// ExternalAllocs reports whether a non-module function is on the curated
// allocating list. math/big methods write into their receiver and are
// excluded; its New* constructors are not.
func ExternalAllocs(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	path := pkg.Path()
	if allocatingPkgs[path] {
		return fmt.Sprintf("calls %s.%s", path, fn.Name()), true
	}
	if path == "math/big" && strings.HasPrefix(fn.Name(), "New") && fn.Type().(*types.Signature).Recv() == nil {
		return "calls big." + fn.Name(), true
	}
	return "", false
}
