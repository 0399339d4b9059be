package witness

import (
	"context"
	"testing"

	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/xmltree"
)

// buildFor solves Ψ(D,Σ) and constructs a witness, failing the test on any
// stage error and on a witness that the oracle (xmltree.Validator and
// constraint.SatisfiedAll) rejects. It returns nil when the system is
// infeasible.
func buildFor(t *testing.T, d *dtd.DTD, src string) *xmltree.Tree {
	t.Helper()
	set := constraint.MustParse(src)
	enc, err := cardinality.EncodeDTD(dtd.Simplify(d))
	if err != nil {
		t.Fatalf("EncodeDTD: %v", err)
	}
	if _, err := enc.AddFull(set); err != nil {
		t.Fatalf("AddFull: %v", err)
	}
	res, err := ilp.Solve(context.Background(), enc.Sys, nil)
	if err != nil {
		t.Fatalf("ilp.Solve: %v", err)
	}
	if !res.Feasible {
		return nil
	}
	tree, err := Build(context.Background(), enc, set, res.Values, nil)
	if err != nil {
		t.Fatalf("Build: %v\nsystem:\n%s", err, enc.Sys)
	}
	if err := xmltree.NewValidator(d).Validate(tree); err != nil {
		t.Fatalf("witness fails the DTD: %v\n%s", err, tree)
	}
	if ok, violated := constraint.SatisfiedAll(tree, set); !ok {
		t.Fatalf("witness violates %s:\n%s", violated, tree)
	}
	return tree
}

func TestWitnessForTeachersKeys(t *testing.T) {
	tree := buildFor(t, dtd.Teachers(), `
teacher.name -> teacher
subject.taught_by -> subject
`)
	if tree == nil {
		t.Fatal("keys over D1 are consistent; expected a witness")
	}
	if len(tree.Ext("teacher")) < 1 {
		t.Error("witness should contain at least one teacher")
	}
}

func TestWitnessForSigma1IsImpossible(t *testing.T) {
	if tree := buildFor(t, dtd.Teachers(), constraint.Sigma1Source); tree != nil {
		t.Errorf("Σ1 over D1 is inconsistent; got a witness:\n%s", tree)
	}
}

func TestWitnessPlainDTD(t *testing.T) {
	tree := buildFor(t, dtd.Teachers(), "")
	if tree == nil {
		t.Fatal("D1 alone is consistent")
	}
	// Minimal witness: exactly one teacher with two subjects.
	if got := len(tree.Ext("teacher")); got != 1 {
		t.Errorf("minimal witness has %d teachers, want 1", got)
	}
	if got := len(tree.Ext("subject")); got != 2 {
		t.Errorf("minimal witness has %d subjects, want 2", got)
	}
}

func TestWitnessInfiniteDTD(t *testing.T) {
	if tree := buildFor(t, dtd.Infinite(), ""); tree != nil {
		t.Errorf("D2 has no finite tree; got:\n%s", tree)
	}
}

func TestWitnessForeignKeyPulls(t *testing.T) {
	// school: enroll references student; requiring one enroll forces a
	// student with a matching id.
	tree := buildFor(t, dtd.School(), `
student.student_id -> student
enroll.student_id => student.student_id
`)
	if tree == nil {
		t.Fatal("unary school constraints are consistent")
	}
}

func TestWitnessNegatedKey(t *testing.T) {
	tree := buildFor(t, dtd.Teachers(), "not teacher.name -> teacher")
	if tree == nil {
		t.Fatal("negated key over D1 is consistent")
	}
	if got := len(tree.Ext("teacher")); got < 2 {
		t.Errorf("negated key needs ≥ 2 teachers, witness has %d", got)
	}
	if got := len(tree.ExtAttr("teacher", "name")); got >= len(tree.Ext("teacher")) {
		t.Errorf("negated key needs duplicated names: %d distinct over %d teachers",
			got, len(tree.Ext("teacher")))
	}
}

func TestWitnessNegatedInclusion(t *testing.T) {
	tree := buildFor(t, dtd.Teachers(), `
teacher.name -> teacher
not subject.taught_by <= teacher.name
`)
	if tree == nil {
		t.Fatal("negated inclusion over D1 is consistent")
	}
	// Some subject's taught_by must escape the teacher names.
	names := tree.ExtAttr("teacher", "name")
	escaped := false
	for v := range tree.ExtAttr("subject", "taught_by") {
		if !names[v] {
			escaped = true
		}
	}
	if !escaped {
		t.Error("witness does not realise the negated inclusion")
	}
}

func TestWitnessRecursiveDTD(t *testing.T) {
	// Terminating recursion with a constraint forcing two levels.
	d := dtd.MustParse(`
<!ELEMENT r (a?)>
<!ELEMENT a (a?)>
<!ATTLIST r k CDATA #REQUIRED>
<!ATTLIST a l CDATA #REQUIRED>
`)
	tree := buildFor(t, d, "r.k <= a.l\nnot a.l -> a")
	if tree == nil {
		t.Fatal("recursive chain with ¬key is consistent (needs ≥2 a-nodes)")
	}
	if got := len(tree.Ext("a")); got < 2 {
		t.Errorf("witness has %d a-nodes, want ≥ 2", got)
	}
}

func TestWitnessDeterministic(t *testing.T) {
	t1 := buildFor(t, dtd.Teachers(), "teacher.name -> teacher")
	t2 := buildFor(t, dtd.Teachers(), "teacher.name -> teacher")
	if xmltree.Serialize(t1) != xmltree.Serialize(t2) {
		t.Error("witness construction is not deterministic")
	}
}

func TestWitnessSerializesAndReparses(t *testing.T) {
	tree := buildFor(t, dtd.School(), "student.student_id -> student")
	if tree == nil {
		t.Fatal("expected witness")
	}
	back, err := xmltree.ParseString(xmltree.Serialize(tree))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !xmltree.Conforms(back, dtd.School()) {
		t.Error("serialised witness no longer conforms")
	}
}
