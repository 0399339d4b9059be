// Package load turns Go packages into the type-checked form the xicvet
// analyzers consume, using only the standard library and the go tool
// itself. It shells out to `go list -export -json -deps`, which compiles
// dependencies into the build cache and reports an export-data file per
// package; packages outside the module under analysis are then imported
// from that export data (via go/importer's gc importer), while packages in
// the module are parsed and type-checked from source in dependency order,
// so analyzers see full syntax trees with complete type information. This
// is the same split a go/packages NeedSyntax|NeedTypes load performs,
// reimplemented on the standard library because the build environment is
// offline and vendors no x/tools.
//
// With Config.Tests set, the loader asks the go tool for test variants
// (`go list -test`): each package p that has in-package test files gains a
// variant `p [p.test]` whose file list includes the _test.go files, and
// each external test package appears as `p_test [p.test]`. The generated
// test-main packages (`p.test`) are skipped, a plain package superseded by
// its variant is demoted to dependency-only so analyzers do not report the
// same finding twice, and each variant's ImportMap is honored during type
// checking so a test package importing p resolves to the augmented
// variant, exactly as the go tool builds it.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Config selects what to load and how.
type Config struct {
	// Dir is the directory to run the go tool in (the module to analyze).
	Dir string
	// Tests includes _test.go files: packages with in-package tests are
	// loaded as their test variants, and external _test packages are loaded
	// too.
	Tests bool
}

// Package is one module package, type-checked from source; dependencies
// outside the module are imported from export data and carry types
// through the importer instead.
type Package struct {
	ImportPath string
	DepOnly    bool // reached only as a dependency, not named by a pattern
	ForTest    string
	GoFiles    []string

	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Program is a load result: the module packages in dependency order (every
// import of a module package precedes it), sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	DepOnly    bool
	ForTest    string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Main bool }
}

// Load loads the packages matched by patterns (plus their dependencies)
// according to cfg. Module packages are type-checked from source; a type
// error in any of them fails the load, matching vet semantics.
func Load(cfg Config, patterns ...string) (*Program, error) {
	listed, err := listPackages(cfg, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string) // import path → export-data file
	byPath := make(map[string]*listedPackage, len(listed))
	hasVariant := make(map[string]bool) // base path → test variant listed
	var modulePaths []string
	for _, lp := range listed {
		if lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
			// Generated test-main package: its sources live in the build
			// cache and hold nothing to analyze.
			continue
		}
		byPath[lp.ImportPath] = lp
		if lp.Module != nil && lp.Module.Main {
			modulePaths = append(modulePaths, lp.ImportPath)
			if lp.ForTest != "" && basePath(lp.ImportPath) == lp.ForTest {
				hasVariant[lp.ForTest] = true
			}
		} else if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}

	imp := &moduleImporter{
		deps:    importer.ForCompiler(fset, "gc", exportLookup(exports)),
		module:  make(map[string]*types.Package),
		exports: exports,
	}

	order, err := topoSort(modulePaths, byPath)
	if err != nil {
		return nil, err
	}

	prog := &Program{Fset: fset}
	for _, path := range order {
		lp := byPath[path]
		pkg, err := checkFromSource(fset, lp, imp.forPackage(lp))
		if err != nil {
			return nil, err
		}
		if lp.ForTest == "" && hasVariant[lp.ImportPath] {
			// The test variant supersedes this plain package for analysis:
			// it carries the same files plus the in-package tests. Keep the
			// plain one for importers, demote it past the Run phase.
			pkg.DepOnly = true
		}
		imp.module[path] = pkg.Types
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// basePath strips the test-variant annotation: "p [p.test]" → "p".
func basePath(importPath string) string {
	base, _, _ := strings.Cut(importPath, " [")
	return base
}

// listPackages runs `go list -export -json -deps` for the load.
func listPackages(cfg Config, patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-export", "-json", "-deps"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)

	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	return decodeList(stdout.Bytes())
}

// decodeList decodes a stream of go list JSON package objects.
func decodeList(raw []byte) ([]*listedPackage, error) {
	var out []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// exportLookup resolves import paths to export-data readers for the gc
// importer. The go tool wrote these files into the build cache during the
// -export list, so every dependency of the analyzed packages is covered.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// moduleImporter resolves module packages to their from-source types and
// everything else through gc export data.
type moduleImporter struct {
	deps    types.Importer
	module  map[string]*types.Package
	exports map[string]string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.module[path]; ok {
		return pkg, nil
	}
	return m.deps.Import(path)
}

// forPackage wraps the importer with one package's ImportMap, so a test
// package importing p resolves to the test variant `p [p.test]` exactly as
// the go tool built it.
func (m *moduleImporter) forPackage(lp *listedPackage) types.Importer {
	if len(lp.ImportMap) == 0 {
		return m
	}
	return &mappedImporter{m: m, importMap: lp.ImportMap}
}

type mappedImporter struct {
	m         *moduleImporter
	importMap map[string]string
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.importMap[path]; ok {
		path = mapped
	}
	return mi.m.Import(path)
}

// topoSort orders the module packages so dependencies precede dependents.
func topoSort(paths []string, byPath map[string]*listedPackage) ([]string, error) {
	sort.Strings(paths)
	inModule := make(map[string]bool, len(paths))
	for _, p := range paths {
		inModule[p] = true
	}
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("load: import cycle through %q", path)
		}
		state[path] = visiting
		lp := byPath[path]
		for _, dep := range lp.Imports {
			if mapped, ok := lp.ImportMap[dep]; ok {
				dep = mapped
			}
			if inModule[dep] {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// checkFromSource parses and type-checks one module package. Test variants
// type-check under their base import path ("p [p.test]" → "p"), matching
// how the go tool compiles them.
func checkFromSource(fset *token.FileSet, lp *listedPackage, imp types.Importer) (*Package, error) {
	pkg := &Package{
		ImportPath: lp.ImportPath,
		DepOnly:    lp.DepOnly,
		ForTest:    lp.ForTest,
	}
	for _, f := range lp.GoFiles {
		pkg.GoFiles = append(pkg.GoFiles, filepath.Join(lp.Dir, f))
	}
	files, err := ParseFiles(fset, pkg.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg.Syntax = files
	pkg.Types, pkg.Info, err = CheckFiles(fset, basePath(lp.ImportPath), files, imp)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// ParseFiles parses source files with comments retained (the analyzers
// read marker and suppression comments).
func ParseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckFiles type-checks one package worth of parsed files under the given
// import path, returning the package and fully-populated type info.
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	return tpkg, info, nil
}

// StdImporter returns an importer resolving import paths through gc export
// data produced by `go list -export` over the given root import paths
// (typically the imports of a test fixture), run in dir. It is the
// analysistest harness's importer: fixtures import only the standard
// library, so no from-source fallback is needed.
func StdImporter(fset *token.FileSet, dir string, roots []string) (types.Importer, error) {
	exports := make(map[string]string, len(roots))
	if len(roots) > 0 {
		listed, err := listPackages(Config{Dir: dir}, roots)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
	}
	return importer.ForCompiler(fset, "gc", exportLookup(exports)), nil
}
