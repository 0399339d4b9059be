package xic

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const teachersDTD = `
<!ELEMENT teachers (teacher+)>
<!ELEMENT teacher (teach, research)>
<!ELEMENT teach (subject, subject)>
<!ELEMENT research (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ATTLIST teacher name CDATA #REQUIRED>
<!ATTLIST subject taught_by CDATA #REQUIRED>
`

const sigma1 = `
teacher.name -> teacher
subject.taught_by -> subject
subject.taught_by => teacher.name
`

// mustSpec compiles the Section 1 specification.
func mustSpec(t *testing.T, dtdSrc, consSrc string) *Spec {
	t.Helper()
	spec, err := CompileStrings(dtdSrc, consSrc)
	if err != nil {
		t.Fatalf("CompileStrings: %v", err)
	}
	return spec
}

func TestQuickstartFlow(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1)
	res, err := spec.Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("the paper's Section 1 specification must be inconsistent")
	}
}

func TestWitnessFlow(t *testing.T) {
	spec := mustSpec(t, teachersDTD, "teacher.name -> teacher")
	res, err := spec.Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent || res.Witness == nil {
		t.Fatal("expected consistency with witness")
	}
	// The witness round-trips through XML text and revalidates.
	text := SerializeDocument(res.Witness)
	doc, err := ParseDocumentString(text)
	if err != nil {
		t.Fatalf("ParseDocumentString: %v", err)
	}
	if err := spec.Validate(context.Background(), doc); err != nil {
		t.Errorf("serialized witness fails dynamic validation: %v", err)
	}
}

func TestSpecValidateViolation(t *testing.T) {
	spec := mustSpec(t, teachersDTD, "subject.taught_by -> subject")
	doc, err := ParseDocumentString(`
<teachers>
  <teacher name="Joe">
    <teach>
      <subject taught_by="Joe">XML</subject>
      <subject taught_by="Joe">DB</subject>
    </teach>
    <research>Web DB</research>
  </teacher>
</teachers>`)
	if err != nil {
		t.Fatalf("ParseDocumentString: %v", err)
	}
	err = spec.Validate(context.Background(), doc)
	var viol *ViolationError
	if !errors.As(err, &viol) {
		t.Fatalf("expected ViolationError, got %v", err)
	}
	if !strings.Contains(viol.Error(), "taught_by") {
		t.Errorf("violation message %q should name the key", viol)
	}
}

func TestImplicationFlow(t *testing.T) {
	ctx := context.Background()
	spec := mustSpec(t, teachersDTD, "teacher.name -> teacher")
	imp, err := spec.Implies(ctx, UnaryKey("teacher", "name"))
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if !imp.Implied {
		t.Error("Σ must imply its own member")
	}

	empty := mustSpec(t, teachersDTD, "")
	imp, err = empty.Implies(ctx, UnaryKey("teacher", "name"))
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if imp.Implied {
		t.Error("empty Σ implies no key on a plural type")
	}
	if imp.Counterexample == nil {
		t.Error("expected counterexample document")
	}
}

func TestSpecImpliesKey(t *testing.T) {
	spec := mustSpec(t, teachersDTD, "")
	ok, err := spec.ImpliesKey(UnaryKey("teachers", "x"))
	if err == nil {
		t.Fatalf("key over undeclared attribute accepted: %v", ok)
	}
}

func TestUndecidableSurface(t *testing.T) {
	d, _ := ParseDTD(`
<!ELEMENT r (a*, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST a y CDATA #REQUIRED>
<!ATTLIST b x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	sigma, _ := ParseConstraints("a(x, y) => b(x, y)")
	spec, err := Compile(d, sigma...)
	if err != nil {
		t.Fatalf("undecidable classes must still compile (Validate works): %v", err)
	}
	_, err = spec.Consistent(context.Background())
	if !errors.Is(err, ErrUndecidable) {
		t.Errorf("multi-attribute foreign keys should surface ErrUndecidable, got %v", err)
	}
}

func TestClassOfAndPrimaryKeys(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1)
	if spec.Class().String() != "C^Unary_{K,FK}" {
		t.Errorf("Class() = %v", spec.Class())
	}
	if err := CheckPrimaryKeys(spec.Constraints()); err != nil {
		t.Errorf("Σ1 is primary-key restricted: %v", err)
	}
}

func TestConstructors(t *testing.T) {
	k := UnaryKey("a", "x")
	if k.String() != "a.x -> a" {
		t.Errorf("UnaryKey string = %q", k)
	}
	ic := UnaryInclusion("a", "x", "b", "y")
	if ic.String() != "a.x <= b.y" {
		t.Errorf("UnaryInclusion string = %q", ic)
	}
	fk := UnaryForeignKey("a", "x", "b", "y")
	if fk.String() != "a.x => b.y" {
		t.Errorf("UnaryForeignKey string = %q", fk)
	}
}

func TestConsistentDTDFacade(t *testing.T) {
	d, _ := ParseDTD(teachersDTD)
	if !ConsistentDTD(d) {
		t.Error("teachers DTD has valid documents")
	}
	d2, _ := ParseDTD("<!ELEMENT db (foo)>\n<!ELEMENT foo (foo)>")
	if ConsistentDTD(d2) {
		t.Error("db → foo → foo … has no finite documents")
	}
}
