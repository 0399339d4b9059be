package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestListsFiveAnalyzers pins the registered suite: exactly the five
// documented analyzers, in order — the three invariant checkers, then the
// interprocedural analyzers built on the call-graph/summary layer.
func TestListsFiveAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("xicvet -list exited %d: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		name, _, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("malformed -list line %q", line)
		}
		names = append(names, name)
	}
	want := []string{"ctxflow", "frozen", "errtaxonomy", "hotalloc", "httpguard"}
	if len(names) != len(want) {
		t.Fatalf("got %d analyzers %v, want %v", len(names), names, want)
	}
	for i, name := range names {
		if name != want[i] {
			t.Fatalf("analyzer %d = %q, want %q (full list %v)", i, name, want[i], names)
		}
	}
}

// TestRepoIsClean runs the whole suite over the real module, test files
// included: the tree must stay free of findings, since CI runs the same
// command as a blocking gate.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, err := Vet(Options{Dir: "../..", Tests: true}, "./...")
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// seedModule writes a throwaway module with the given source file and
// returns its directory.
func seedModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.21\n")
	write("seed.go", src)
	return dir
}

// TestSeededViolationFails builds a throwaway module containing a frozen
// violation and asserts the gate trips: acceptance that seeding a bug
// makes the CI vet job fail.
func TestSeededViolationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := seedModule(t, `// Package seeded seeds one frozen violation.
package seeded

// Config is published at startup.
//
// xic:frozen
type Config struct{ N int }

// New is the constructor.
func New() *Config { return &Config{N: 1} }

// Tweak mutates after publish: the violation under test.
func Tweak(c *Config) { c.N = 2 }
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "frozen: write to field N of frozen type Config") {
		t.Fatalf("missing frozen finding in output:\n%s", stdout.String())
	}
}

// TestMalformedDirectiveIsAFinding asserts the driver-level directive
// check: naming an unknown analyzer or omitting the reason is itself a
// finding, so dead suppressions cannot ship silently.
func TestMalformedDirectiveIsAFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := seedModule(t, `// Package seeded carries two malformed suppressions.
package seeded

// A is fine on its own.
func A() int {
	//xic:ignore frozn typo'd analyzer name
	x := 1
	//xic:ignore frozen
	return x
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, `unknown analyzer "frozn"`) {
		t.Errorf("missing unknown-analyzer finding:\n%s", out)
	}
	if !strings.Contains(out, "has no reason and suppresses nothing") {
		t.Errorf("missing missing-reason finding:\n%s", out)
	}
}

// TestDirectivesKnowNewAnalyzers asserts the driver's known-name set
// tracks the interprocedural pack: suppressions naming its analyzers are
// accepted, and a near-miss of one of their names, or the name of an
// analyzer the suite no longer has, is flagged as unknown just like a typo
// of an original one.
func TestDirectivesKnowNewAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := seedModule(t, `// Package seeded names new-pack analyzers in suppressions.
package seeded

// A carries one valid (if unused) suppression per new analyzer and one
// typo'd name that must be flagged.
func A() int {
	//xic:ignore hotalloc deliberate exception for the directive test
	//xic:ignore httpguard deliberate exception for the directive test
	//xic:ignore hotallocs typo'd new-analyzer name
	//xic:ignore hotrecurse analyzer deleted from the suite
	return 1
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, name := range []string{"hotallocs", "hotrecurse"} {
		if !strings.Contains(out, "unknown analyzer \""+name+"\"") {
			t.Errorf("missing unknown-analyzer finding for %s:\n%s", name, out)
		}
	}
	for _, name := range []string{"hotalloc", "httpguard"} {
		if strings.Contains(out, "unknown analyzer \""+name+"\"") {
			t.Errorf("directive naming %s was rejected as unknown:\n%s", name, out)
		}
	}
}

// TestTestsFlagExtendsCoverage seeds a violation that lives only in a
// _test.go file: invisible without -tests, a finding with it.
func TestTestsFlagExtendsCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := seedModule(t, `// Package seeded is clean; its test file is not.
package seeded

// Config is published at startup.
//
// xic:frozen
type Config struct{ N int }

// New is the constructor.
func New() *Config { return &Config{N: 1} }
`)
	// A frozen violation confined to the test file; frozen does not relax
	// in test files, so -tests must surface it.
	testSrc := `package seeded

import "testing"

func TestTweak(t *testing.T) {
	c := New()
	c.N = 2
}
`
	if err := os.WriteFile(filepath.Join(dir, "seed_test.go"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("without -tests: exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-tests", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("with -tests: exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "frozen: write to field N of frozen type Config") {
		t.Fatalf("missing frozen finding from test file:\n%s", stdout.String())
	}
}

// TestProblemMatcherMatchesOutput pins the contract between xicvet's
// plain output and the GitHub problem matcher: every finding line must
// match the committed regex, and the captured file/line/column/code/
// message groups must agree with the Diagnostic fields Vet returns for the
// same findings.
// A drift in either the output format or the matcher regex fails here
// before it silently stops annotating PRs.
func TestProblemMatcherMatchesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", ".github", "xicvet-problem-matcher.json"))
	if err != nil {
		t.Fatalf("reading problem matcher: %v", err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Owner   string `json:"owner"`
			Pattern []struct {
				Regexp  string `json:"regexp"`
				File    int    `json:"file"`
				Line    int    `json:"line"`
				Column  int    `json:"column"`
				Code    int    `json:"code"`
				Message int    `json:"message"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatalf("decoding problem matcher: %v", err)
	}
	if len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("expected one matcher with one pattern, got %+v", matcher)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile: %v", err)
	}

	// Two findings from different analyzers keep the line-by-line
	// pairing with Vet's sorted diagnostics honest.
	dir := seedModule(t, `// Package seeded seeds a frozen and a ctxflow finding for the matcher test.
package seeded

import "context"

// Config is published at startup.
//
// xic:frozen
type Config struct{ N int }

// New is the constructor.
func New() *Config { return &Config{N: 1} }

// Tweak mutates after publish.
func Tweak(c *Config) { c.N = 2 }

// Detached manufactures a context in library code.
func Detached() context.Context { return context.Background() }
`)

	var plain, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &plain, &stderr); code != 1 {
		t.Fatalf("plain run: exit %d\n%s", code, stderr.String())
	}
	diags, err := Vet(Options{Dir: dir}, "./...")
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(plain.String()), "\n")
	if len(lines) != len(diags) || len(diags) < 2 {
		t.Fatalf("plain output has %d lines, Vet returned %d diagnostics (want at least 2):\n%s", len(lines), len(diags), plain.String())
	}
	for i, line := range lines {
		groups := re.FindStringSubmatch(line)
		if groups == nil {
			t.Errorf("finding line does not match the problem matcher regex %q:\n%s", pat.Regexp, line)
			continue
		}
		d := diags[i]
		file, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		if groups[pat.File] != file {
			t.Errorf("matcher file = %q, diagnostic file = %q (line %s)", groups[pat.File], file, line)
		}
		if groups[pat.Line] != strconv.Itoa(d.Pos.Line) {
			t.Errorf("matcher line = %q, diagnostic line = %d (line %s)", groups[pat.Line], d.Pos.Line, line)
		}
		if groups[pat.Column] != strconv.Itoa(d.Pos.Column) {
			t.Errorf("matcher column = %q, diagnostic column = %d (line %s)", groups[pat.Column], d.Pos.Column, line)
		}
		if groups[pat.Code] != d.Analyzer {
			t.Errorf("matcher code = %q, diagnostic analyzer = %q (line %s)", groups[pat.Code], d.Analyzer, line)
		}
		if groups[pat.Message] != d.Message {
			t.Errorf("matcher message = %q, diagnostic message = %q (line %s)", groups[pat.Message], d.Message, line)
		}
	}
}
