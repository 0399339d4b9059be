// Command xicvet runs the project's static-analysis suite (see
// internal/analysis and the README's "Static analysis" section) over Go
// package patterns and reports invariant violations in vet format:
//
//	xicvet ./...
//	xicvet -list
//	xicvet -tests -C /path/to/module ./internal/...
//
// It exits 1 when any analyzer reports a finding, so CI can use it as a
// blocking gate. Suppress a deliberate exception at the finding site with
// an `//xic:ignore <analyzer> <reason>` comment; malformed directives
// (unknown analyzer, missing reason) are themselves findings.
//
// -tests extends the analysis to _test.go files (CI runs with it on).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"xic/internal/analysis"
	"xic/internal/analysis/load"
	"xic/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Options configures one Vet invocation.
type Options struct {
	// Dir is the module directory to analyze.
	Dir string
	// Tests includes _test.go files in the analysis.
	Tests bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xicvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	dir := fs.String("C", ".", "run in this directory (the module to analyze)")
	tests := fs.Bool("tests", false, "also analyze _test.go files")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := Vet(Options{Dir: *dir, Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "xicvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(*dir, pos.Filename); err == nil && filepath.IsAbs(pos.Filename) {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "xicvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// Vet loads the packages matched by patterns and applies the whole suite:
// every analyzer's Collect phase over every module package first (so
// cross-package tables are complete), then Run over the packages the
// patterns actually named, then a directive check that flags malformed
// //xic:ignore comments. Diagnostics come back sorted by position.
func Vet(opts Options, patterns ...string) ([]analysis.Diagnostic, error) {
	prog, err := load.Load(load.Config{Dir: opts.Dir, Tests: opts.Tests}, patterns...)
	if err != nil {
		return nil, err
	}

	var diags []analysis.Diagnostic
	record := func(d analysis.Diagnostic) { diags = append(diags, d) }

	analyzers := suite.Analyzers()
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, pkg := range prog.Packages {
			pass := analysis.NewPass(a, prog.Fset, pkg.Syntax, pkg.Types, pkg.Info, record)
			if err := a.Collect(pass); err != nil {
				return nil, fmt.Errorf("%s: collect %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			if pkg.DepOnly {
				continue
			}
			pass := analysis.NewPass(a, prog.Fset, pkg.Syntax, pkg.Types, pkg.Info, record)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: run %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, pkg := range prog.Packages {
		if pkg.DepOnly {
			continue
		}
		diags = append(diags, analysis.CheckDirectives(prog.Fset, pkg.Syntax, known)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
