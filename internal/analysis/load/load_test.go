package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xic/internal/analysis/load"
)

// writeModule lays out a tiny module with an in-package test, an external
// test, and a second package importing the first.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tiny\n\ngo 1.21\n",
		"a/a.go": `package a

// A is exported for b and the tests.
func A() int { return 1 }
`,
		"a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) {
	if A() != 1 {
		t.Fatal("A")
	}
}
`,
		"a/ax_test.go": `package a_test

import (
	"testing"

	"tiny/a"
)

func TestAX(t *testing.T) {
	if a.A() != 1 {
		t.Fatal("A")
	}
}
`,
		"b/b.go": `package b

import "tiny/a"

// B leans on a.
func B() int { return a.A() + 1 }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadWithoutTests pins the baseline shape: two module packages, no
// test files parsed.
func TestLoadWithoutTests(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := writeModule(t)
	prog, err := load.Load(load.Config{Dir: dir}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, pkg := range prog.Packages {
		paths = append(paths, pkg.ImportPath)
		for _, f := range pkg.GoFiles {
			if strings.HasSuffix(f, "_test.go") {
				t.Errorf("test file %s loaded without Tests", f)
			}
		}
	}
	want := "tiny/a tiny/b"
	if got := strings.Join(paths, " "); got != want {
		t.Errorf("packages = %q, want %q", got, want)
	}
}

// TestLoadWithTests pins the -test load shape: the in-package variant
// supersedes the plain package (which is demoted to DepOnly so analyzers
// do not run twice over the same files), the external test package is
// present, and the generated .test main is dropped.
func TestLoadWithTests(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := writeModule(t)
	prog, err := load.Load(load.Config{Dir: dir, Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*load.Package)
	for _, pkg := range prog.Packages {
		byPath[pkg.ImportPath] = pkg
		if strings.HasSuffix(pkg.ImportPath, ".test") {
			t.Errorf("generated test main %s should be skipped", pkg.ImportPath)
		}
	}

	plain, ok := byPath["tiny/a"]
	if !ok {
		t.Fatal("plain tiny/a missing (importers need it)")
	}
	if !plain.DepOnly {
		t.Error("plain tiny/a should be demoted to DepOnly when its test variant is loaded")
	}

	variant, ok := byPath["tiny/a [tiny/a.test]"]
	if !ok {
		t.Fatalf("test variant of tiny/a missing; loaded %v", keys(byPath))
	}
	if variant.DepOnly {
		t.Error("test variant should be analyzed, not DepOnly")
	}
	if variant.ForTest != "tiny/a" {
		t.Errorf("variant.ForTest = %q, want tiny/a", variant.ForTest)
	}
	hasTestFile := false
	for _, f := range variant.GoFiles {
		if strings.HasSuffix(f, "a_test.go") {
			hasTestFile = true
		}
	}
	if !hasTestFile {
		t.Errorf("variant files %v lack a_test.go", variant.GoFiles)
	}
	if variant.Types.Path() != "tiny/a" {
		t.Errorf("variant type-checked as %q, want base path tiny/a", variant.Types.Path())
	}

	if _, ok := byPath["tiny/a_test [tiny/a.test]"]; !ok {
		t.Errorf("external test package missing; loaded %v", keys(byPath))
	}
}

func keys(m map[string]*load.Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
