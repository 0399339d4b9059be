// Shared lets several analyzers in one driver run contribute packages to a
// single call graph and read one set of summaries, instead of each building
// its own. The driver runs every analyzer's Collect over every package
// before any Run, so the protocol is: each analyzer's Collect calls Add
// (idempotent per package), and the first Run to call Resolve finalizes the
// graph and solves the facts.
package summary

import (
	"go/ast"
	"go/types"

	"xic/internal/analysis/callgraph"
)

// Shared is one driver run's call graph + summaries, built cooperatively.
type Shared struct {
	builder *callgraph.Builder
	graph   *callgraph.Graph
	facts   *Set
}

// NewShared returns an empty Shared.
func NewShared() *Shared {
	return &Shared{builder: callgraph.NewBuilder()}
}

// Add contributes one type-checked package. Adding the same *types.Package
// again (another analyzer's Collect pass) is a no-op. Test-variant
// packages re-typecheck the same sources into a distinct *types.Package;
// both are added, so edge resolution works in either object world.
func (s *Shared) Add(files []*ast.File, pkg *types.Package, info *types.Info) {
	if s.graph != nil {
		return // resolved: late adds (not a driver scenario) are dropped
	}
	s.builder.AddPackage(files, pkg, info)
}

// Resolve finalizes the graph and computes summaries, once; later calls
// return the same result.
func (s *Shared) Resolve() (*callgraph.Graph, *Set) {
	if s.graph == nil {
		s.graph = s.builder.Finalize()
		s.facts = Compute(s.graph)
	}
	return s.graph, s.facts
}
