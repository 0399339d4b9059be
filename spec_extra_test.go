package xic

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xic/internal/core"
)

func TestFingerprint(t *testing.T) {
	a := Fingerprint("dtd", "cons")
	if len(a) != 128 {
		t.Fatalf("fused fingerprint %q is not two hex SHA-256 halves", a)
	}
	if a != Fingerprint("dtd", "cons") {
		t.Error("fingerprint is not deterministic")
	}
	// The fused form is exactly the concatenation of the two section
	// fingerprints, so a cache can split a spec id into its schema half.
	if a != FingerprintDTD("dtd")+FingerprintConstraints("cons") {
		t.Error("fused fingerprint is not the concatenation of its sections")
	}
	if len(FingerprintDTD("dtd")) != 64 || len(FingerprintConstraints("cons")) != 64 {
		t.Error("section fingerprints are not hex SHA-256")
	}
	// Domain separation: identical bytes hash differently per section.
	if FingerprintDTD("x") == FingerprintConstraints("x") {
		t.Error("DTD and constraint hash spaces overlap")
	}
	// Section hashing keeps boundaries unambiguous.
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("boundary shift collides")
	}
	if Fingerprint("dtd", "") == Fingerprint("", "dtd") {
		t.Error("section swap collides")
	}
}

// TestValidateHonorsContext checks the tree-mode validator aborts under an
// expired context with the same error contract as ValidateStream.
func TestValidateHonorsContext(t *testing.T) {
	spec, err := CompileStrings(`
<!ELEMENT db (rec*)>
<!ELEMENT rec EMPTY>
<!ATTLIST rec id CDATA #REQUIRED>`, "rec.id -> rec")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 20000; i++ {
		b.WriteString(`<rec id="r`)
		b.WriteString(strings.Repeat("x", i%7))
		b.WriteString("\"/>")
	}
	b.WriteString("</db>")
	doc, err := ParseDocumentString(b.String())
	if err != nil {
		t.Fatal(err)
	}

	if err := spec.Validate(context.Background(), doc); err == nil {
		// Ids repeat (only 7 distinct), so the key is genuinely violated —
		// background validation must say so, not pass silently.
		t.Fatal("duplicate ids must violate the key")
	} else if !errors.As(err, new(*ViolationError)) {
		t.Fatalf("want ViolationError, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = spec.Validate(ctx, doc)
	if err == nil {
		t.Fatal("cancelled validation returned nil")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled validation error %v must match ErrCanceled and context.Canceled", err)
	}

	// nil context means unbounded, mirroring ValidateStream.
	if err := spec.Validate(nil, doc); err == nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Error("nil-context validation lost the violation")
	}
}

func TestHTTPStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 200},
		{&ParseError{Input: "dtd", Line: 1, Msg: "x"}, 400},
		{&SpecError{Stage: "constraints", Err: errors.New("x")}, 422},
		{&SpecError{Stage: "solve", Err: errors.New("x")}, 500},
		{ErrUndecidable, 422},
		{ErrCanceled, 504},
		{ErrNothingToDiagnose, 409},
		{core.ErrNothingToDiagnose, 409},
		{errors.New("mystery"), 500},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCompileStringsSemanticErrors checks semantic parser rejections surface
// as stage-tagged SpecErrors, not bare strings (the daemon maps them to 422).
func TestCompileStringsSemanticErrors(t *testing.T) {
	// "a" used both as element type and attribute name.
	_, err := CompileStrings(`<!ELEMENT r (a)> <!ELEMENT a EMPTY> <!ATTLIST r a CDATA #REQUIRED>`, "")
	var se *SpecError
	if !errors.As(err, &se) || se.Stage != "dtd" {
		t.Errorf("want SpecError{Stage: dtd}, got %v", err)
	}
	if got := HTTPStatus(err); got != 422 {
		t.Errorf("HTTPStatus = %d, want 422", got)
	}
	// Syntax errors still surface as ParseError.
	_, err = CompileStrings("<!ELEMENT", "")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Errorf("want ParseError, got %v", err)
	}
}

// TestSpecSolveStats: the solver counters accumulate across checks, are
// shared between WithSolveOptions views of one engine, and report presolve
// activity on encoding-shaped systems.
func TestSpecSolveStats(t *testing.T) {
	spec, err := CompileStrings(`
<!ELEMENT db (emp*, dept*)>
<!ELEMENT emp EMPTY>
<!ELEMENT dept EMPTY>
<!ATTLIST emp id CDATA #REQUIRED works_in CDATA #REQUIRED>
<!ATTLIST dept id CDATA #REQUIRED>`, `
emp.id -> emp
emp.works_in => dept.id`)
	if err != nil {
		t.Fatal(err)
	}
	if st := spec.SolveStats(); st.Solves != 0 {
		t.Fatalf("fresh spec already has solves: %+v", st)
	}
	tuned := spec.WithSolveOptions(WithSkipWitness())
	for i := 0; i < 3; i++ {
		if _, err := tuned.Consistent(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := spec.SolveStats() // read through the *other* view: counters are shared
	if st.Solves != 3 {
		t.Errorf("Solves = %d, want 3", st.Solves)
	}
	if st.PresolveRows == 0 {
		t.Errorf("presolve saw no rows: %+v", st)
	}
	if st.PresolveDecided+st.FastPath+st.VarsFixed == 0 {
		t.Errorf("presolve idle on an encoding-shaped system: %+v", st)
	}
}
