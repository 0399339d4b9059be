// Package hotrecurse forbids recursion under //xic:hotpath functions: a
// hot kernel sitting on a call cycle has unbounded stack growth and
// per-frame cost that the zero-allocation contract cannot see, and the
// solver kernels are all written as explicit loops precisely to avoid
// that. The check is the call graph's SCC condensation: a marked function
// whose component has more than one member — or that calls itself — is
// flagged, with the cycle members named. Dynamic calls are unresolved, so
// recursion laundered through a func value is out of scope (and flagged
// instead by hotalloc's closure rules when the value is built in a hot
// region).
package hotrecurse

import (
	"go/types"
	"sort"

	"xic/internal/analysis"
	"xic/internal/analysis/hotpath"
	"xic/internal/analysis/summary"
)

type hotrecurse struct {
	sh *summary.Shared
}

// New constructs a standalone analyzer with its own call graph.
func New() *analysis.Analyzer { return NewShared(summary.NewShared()) }

// NewShared constructs the analyzer over a shared call graph.
func NewShared(sh *summary.Shared) *analysis.Analyzer {
	h := &hotrecurse{sh: sh}
	return &analysis.Analyzer{
		Name:    "hotrecurse",
		Doc:     "forbids //xic:hotpath functions from sitting on a call cycle (direct or mutual recursion)",
		Collect: h.collect,
		Run:     h.run,
	}
}

func (h *hotrecurse) collect(pass *analysis.Pass) error {
	h.sh.Add(pass.Files, pass.Pkg, pass.Info)
	return nil
}

func (h *hotrecurse) run(pass *analysis.Pass) error {
	marks := hotpath.Scan(pass.Fset, pass.Files)
	if len(marks.Funcs) == 0 {
		return nil
	}
	graph, _ := h.sh.Resolve()
	for _, fd := range marks.Funcs {
		fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		node, ok := graph.Nodes[fn]
		if !ok || !graph.Recursive(node) {
			continue
		}
		members := []string{fn.Name()}
		if i := graph.SCCOf(node); i >= 0 && len(graph.SCCs[i]) > 1 {
			members = members[:0]
			for _, m := range graph.SCCs[i] {
				members = append(members, m.Func.Name())
			}
			sort.Strings(members)
			if len(members) > 4 {
				members = append(members[:4], "...")
			}
		}
		pass.Reportf(fd.Name.Pos(), "hot path function %s sits on a call cycle (%s); hot kernels must be iterative", fn.Name(), join(members))
	}
	return nil
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " <-> "
		}
		out += n
	}
	return out
}
