// Package analysis is a self-contained static-analysis framework for the
// xicvet suite: project-specific checkers that mechanically enforce the
// engine's concurrency, aliasing and error-taxonomy invariants (see
// cmd/xicvet). It mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer runs over one type-checked package at a time and reports
// position-anchored diagnostics — but is built entirely on the standard
// library's go/ast and go/types, so the suite compiles and runs with no
// module dependencies (the build environment is offline by design).
//
// Two deliberate divergences from x/tools:
//
//   - Cross-package state uses an optional Collect phase instead of
//     serialized facts: the driver runs every analyzer's Collect over every
//     package before any Run, so an analyzer can see, say, which types are
//     marked frozen in package A before checking writes in package B.
//     Analyzers that need Collect keep closure state and are constructed
//     fresh per driver run via their New functions.
//
//   - Suppression is built into Pass.Reportf: a finding whose line (or the
//     line above it) carries an `//xic:ignore <analyzer> <reason>` directive
//     is dropped, uniformly for every analyzer. The reason is mandatory —
//     a bare directive suppresses nothing — so every exception in the tree
//     documents itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one xicvet checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //xic:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Collect, if non-nil, runs over every package before any Run call,
	// letting the analyzer gather cross-package state (marker comments,
	// sibling-function tables) in closure variables.
	Collect func(*Pass) error
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through an analyzer. The driver
// builds one Pass per (analyzer, package) pair; suppression directives are
// shared across analyzers of the same package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	suppress *Suppressions
	report   func(Diagnostic)
}

// NewPass assembles a Pass. report receives every non-suppressed
// diagnostic.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		suppress: NewSuppressions(fset, files),
		report:   report,
	}
}

// InTestFile reports whether pos lies in a _test.go file. ctxflow relaxes
// its invariant for test code (manufactured contexts are idiomatic there),
// which only matters when the loader runs with test files included.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Reportf reports a finding at pos unless an //xic:ignore directive for
// this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.Covers(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IgnoreDirective is the comment prefix of the shared suppression helper.
const IgnoreDirective = "//xic:ignore"

// Suppressions indexes the //xic:ignore directives of one package. A
// directive covers findings of the named analyzer on its own line and on
// the line directly below it, so both trailing and preceding comments
// work:
//
//	doRisky() //xic:ignore ctxflow the facade documents background use
//
//	//xic:ignore frozen rebuilt under the registry mutex
//	entry.CompileTime = elapsed
//
// The reason text is required: a directive with no reason is inert.
type Suppressions struct {
	// byFile maps file name → line → analyzer names suppressed there.
	byFile map[string]map[int][]string
}

// NewSuppressions scans the comments of files for ignore directives.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byFile: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // analyzer name and a reason are both required
				}
				pos := fset.Position(c.Pos())
				lines := s.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byFile[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
			}
		}
	}
	return s
}

// CheckDirectives validates the //xic:ignore directives of a package
// against the set of known analyzer names: a directive naming an analyzer
// that does not exist suppresses nothing and is almost certainly a typo,
// and a directive with no reason is inert by design — both are reported as
// driver-level diagnostics (Analyzer "xicvet") so the vet gate catches
// them instead of silently shipping a dead suppression.
func CheckDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					out = append(out, Diagnostic{Pos: pos, Analyzer: "xicvet",
						Message: "//xic:ignore directive names no analyzer and suppresses nothing; write //xic:ignore <analyzer> <reason>"})
				case !known[fields[0]]:
					out = append(out, Diagnostic{Pos: pos, Analyzer: "xicvet",
						Message: fmt.Sprintf("//xic:ignore names unknown analyzer %q; the directive suppresses nothing", fields[0])})
				case len(fields) < 2:
					out = append(out, Diagnostic{Pos: pos, Analyzer: "xicvet",
						Message: fmt.Sprintf("//xic:ignore %s has no reason and suppresses nothing; document why the finding is acceptable", fields[0])})
				}
			}
		}
	}
	return out
}

// Covers reports whether a directive for analyzer covers the position.
func (s *Suppressions) Covers(analyzer string, pos token.Position) bool {
	lines := s.byFile[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}
