package xic

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestShippedSpecs keeps the files under specs/ working: they are the
// user-facing starting points referenced by the README and the CLI help.
func TestShippedSpecs(t *testing.T) {
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("specs", name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(data)
	}

	teachers, err := CompileStrings(read("teachers.dtd"), read("teachers.xic"))
	if err != nil {
		t.Fatalf("compile teachers spec: %v", err)
	}
	res, err := teachers.WithSolveOptions(WithSkipWitness()).Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("specs/teachers.* must reproduce the paper's inconsistency")
	}

	school, err := CompileStrings(read("school.dtd"), read("school.xic"))
	if err != nil {
		t.Fatalf("compile school spec: %v", err)
	}
	doc, err := ParseDocumentString(read("school.xml"))
	if err != nil {
		t.Fatalf("school.xml: %v", err)
	}
	if err := school.Validate(context.Background(), doc); err != nil {
		t.Errorf("specs/school.xml should validate against D3 + Σ3: %v", err)
	}

	// The registrar spec is the compile-amortisation case of the
	// BENCH_compile.json corpus: keys-only (linear consistency) over a
	// schema big enough that CompileDTD dominates any single check.
	registrar, err := CompileStrings(read("registrar.dtd"), read("registrar.xic"))
	if err != nil {
		t.Fatalf("compile registrar spec: %v", err)
	}
	if registrar.Class().String() != "C_K" {
		t.Errorf("registrar constraints should be keys-only, got %s", registrar.Class())
	}
	res, err = registrar.WithSolveOptions(WithSkipWitness()).Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent {
		t.Error("specs/registrar.* must be consistent")
	}

	// The teachers implication-query sidecar must stay parseable: it is
	// the implication-sweep case of the same corpus.
	queries, err := ParseConstraints(read("teachers.queries"))
	if err != nil {
		t.Fatalf("teachers.queries: %v", err)
	}
	if len(queries) == 0 {
		t.Error("teachers.queries lists no queries")
	}
}
