package core

import (
	"errors"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/presolve"
	"xic/internal/xmltree"
)

func TestConsistentDTD(t *testing.T) {
	if !ConsistentDTD(dtd.Teachers()) {
		t.Error("D1 should have valid trees")
	}
	if ConsistentDTD(dtd.Infinite()) {
		t.Error("D2 has no finite valid tree")
	}
	if !ConsistentDTD(dtd.School()) {
		t.Error("D3 should have valid trees")
	}
}

func TestSigma1Inconsistent(t *testing.T) {
	// The paper's headline example: Σ1 over D1 is inconsistent.
	res, err := Consistent(dtd.Teachers(), constraint.Sigma1(), nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("Σ1 over D1 should be inconsistent")
	}
	if res.Class != constraint.ClassUnaryKFK {
		t.Errorf("class = %v, want C^Unary_{K,FK}", res.Class)
	}
}

func TestSigma1WithoutForeignKeyConsistent(t *testing.T) {
	// Dropping the foreign key removes the cardinality clash.
	set := constraint.MustParse(`
teacher.name -> teacher
subject.taught_by -> subject
`)
	res, err := Consistent(dtd.Teachers(), set, nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent {
		t.Fatal("keys alone should be consistent with D1")
	}
	if res.Witness == nil {
		t.Fatal("expected a witness")
	}
	if ok, violated := constraint.SatisfiedAll(res.Witness, set); !ok {
		t.Errorf("witness violates %s", violated)
	}
	if !xmltree.Conforms(res.Witness, dtd.Teachers()) {
		t.Error("witness does not conform to D1")
	}
}

func TestInvertedForeignKeyConsistent(t *testing.T) {
	// Reversing Σ1's foreign key (teacher.name references subject.taught_by)
	// is consistent: |ext(teacher)| ≤ |ext(subject)| matches the DTD.
	set := constraint.MustParse(`
teacher.name -> teacher
subject.taught_by -> subject
teacher.name => subject.taught_by
`)
	res, err := Consistent(dtd.Teachers(), set, nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent {
		t.Error("inverted foreign key should be consistent with D1")
	}
}

func TestKeysOnlyMultiAttribute(t *testing.T) {
	set := constraint.MustParse(`
course(dept, course_no) -> course
student(student_id) -> student
`)
	res, err := Consistent(dtd.School(), set, nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent {
		t.Fatal("multi-attribute keys alone are always consistent over a nonempty DTD (Theorem 3.5(2))")
	}
	if res.Class != constraint.ClassK {
		t.Errorf("class = %v, want C_K", res.Class)
	}
	if res.Witness == nil {
		t.Fatal("expected a witness")
	}
	if ok, violated := constraint.SatisfiedAll(res.Witness, set); !ok {
		t.Errorf("witness violates %s", violated)
	}
}

func TestKeysOnlyOverEmptyDTD(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT db (foo)>
<!ELEMENT foo (foo)>
<!ATTLIST foo k CDATA #REQUIRED>
`)
	res, err := Consistent(d, constraint.MustParse("foo.k -> foo"), nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("keys over a treeless DTD are inconsistent")
	}
}

func TestUndecidableClassRejected(t *testing.T) {
	_, err := Consistent(dtd.School(), constraint.Sigma3(), nil)
	if !errors.Is(err, ErrUndecidable) {
		t.Errorf("Σ3 (multi-attribute keys + foreign keys) should report ErrUndecidable, got %v", err)
	}
}

func TestFullClassWithNegations(t *testing.T) {
	set := constraint.MustParse(`
teacher.name -> teacher
not subject.taught_by <= teacher.name
`)
	res, err := Consistent(dtd.Teachers(), set, nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent {
		t.Fatal("negated inclusion should be satisfiable over D1")
	}
	if res.Class != constraint.ClassUnaryFull {
		t.Errorf("class = %v, want C^Unary_{K¬,IC¬}", res.Class)
	}
	if res.Witness == nil {
		t.Fatal("expected witness")
	}
	if ok, violated := constraint.SatisfiedAll(res.Witness, set); !ok {
		t.Errorf("witness violates %s", violated)
	}
}

func TestSkipWitness(t *testing.T) {
	res, err := Consistent(dtd.Teachers(), nil, &Options{SkipWitness: true})
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent || res.Witness != nil {
		t.Errorf("SkipWitness: consistent=%v witness=%v", res.Consistent, res.Witness)
	}
}

func TestInvalidInputs(t *testing.T) {
	bad := dtd.New("r") // root not declared
	if _, err := Consistent(bad, nil, nil); err == nil {
		t.Error("invalid DTD accepted")
	}
	if _, err := Consistent(dtd.Teachers(), constraint.MustParse("ghost.x -> ghost"), nil); err == nil {
		t.Error("constraints over undeclared types accepted")
	}
}

func TestCheckerReuse(t *testing.T) {
	c, err := NewChecker(dtd.Teachers())
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	sets := []string{
		"teacher.name -> teacher",
		"subject.taught_by -> subject",
		constraint.Sigma1Source,
	}
	wantConsistent := []bool{true, true, false}
	for i, src := range sets {
		res, err := c.Consistent(constraint.MustParse(src), &Options{SkipWitness: true})
		if err != nil {
			t.Fatalf("checker run %d: %v", i, err)
		}
		if res.Consistent != wantConsistent[i] {
			t.Errorf("checker run %d: consistent=%v, want %v", i, res.Consistent, wantConsistent[i])
		}
	}
}

func TestPrimaryKeyRestrictionHelper(t *testing.T) {
	if err := constraint.CheckPrimaryKeyRestriction(constraint.Sigma1()); err != nil {
		t.Errorf("Σ1 is a primary-key set: %v", err)
	}
	// Consistency is NP-complete even under the restriction (Cor 4.8); the
	// dispatcher treats restricted sets identically.
	res, err := Consistent(dtd.Teachers(), constraint.Sigma1(), &Options{SkipWitness: true})
	if err != nil || res.Consistent {
		t.Errorf("restricted Σ1 should stay inconsistent (err=%v)", err)
	}
}

// TestSolveStatsCountsPresolveBails: a solve whose presolve overflowed
// int64 and handed the search its input unreduced shows in SolveStats.
func TestSolveStatsCountsPresolveBails(t *testing.T) {
	c := &Checker{}
	c.recordSolve(&ilp.Result{Stats: ilp.Stats{PresolveUsed: true, Presolve: presolve.Stats{Rows: 3, RowsOut: 3, Bailed: true}}})
	c.recordSolve(&ilp.Result{Stats: ilp.Stats{PresolveUsed: true, Presolve: presolve.Stats{Rows: 3, RowsOut: 1}}})
	st := c.SolveStats()
	if st.Solves != 2 || st.PresolveBailed != 1 {
		t.Errorf("SolveStats = %+v, want 2 solves and 1 presolve bail", st)
	}
}
