// Package suite registers the xicvet analyzers. Analyzers carry per-run
// closure state (Collect tables), so this returns fresh instances on every
// call rather than package-level singletons.
package suite

import (
	"xic/internal/analysis"
	"xic/internal/analysis/ctxflow"
	"xic/internal/analysis/errtaxonomy"
	"xic/internal/analysis/frozen"
	"xic/internal/analysis/hotalloc"
	"xic/internal/analysis/httpguard"
	"xic/internal/analysis/summary"
)

// Analyzers returns the full xicvet suite in reporting order: the three
// invariant checkers, then the interprocedural analyzers built on the
// call-graph/summary layer (see internal/analysis/callgraph and
// internal/analysis/summary). The interprocedural analyzers share one
// summary.Shared so the module's call graph is built and solved once per
// run, not once per analyzer.
func Analyzers() []*analysis.Analyzer {
	sh := summary.NewShared()
	return []*analysis.Analyzer{
		ctxflow.New(),
		frozen.New(),
		errtaxonomy.New(),
		hotalloc.NewShared(sh),
		httpguard.NewShared(sh),
	}
}
