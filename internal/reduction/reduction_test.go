package reduction

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/dtd"
	"xic/internal/relational"
	"xic/internal/xmltree"
)

// consistent and implies decide one instance on a fresh core Checker.
func consistent(d *dtd.DTD, set []constraint.Constraint, opt *core.Options) (*core.Result, error) {
	eng, err := core.NewEngine(d)
	if err != nil {
		return nil, err
	}
	return eng.NewChecker().ConsistentContext(context.Background(), set, opt)
}

func implies(d *dtd.DTD, sigma []constraint.Constraint, phi constraint.Constraint, opt *core.Options) (*core.Implication, error) {
	eng, err := core.NewEngine(d)
	if err != nil {
		return nil, err
	}
	return eng.NewChecker().ImpliesContext(context.Background(), sigma, phi, opt)
}

func TestEncodeFDIDShape(t *testing.T) {
	s := relational.NewSchema()
	s.AddRelation("R", "a", "b", "c")
	s.AddRelation("S", "d", "e")
	sigma := []relational.Dependency{
		relational.FD{Rel: "R", From: []string{"a"}, To: []string{"b"}},
		relational.ID{Child: "S", ChildAttrs: []string{"d"}, Parent: "R", ParentAttrs: []string{"a"}},
	}
	theta := relational.FD{Rel: "R", From: []string{"b"}, To: []string{"c"}}
	inst, err := EncodeFDID(s, sigma, theta)
	if err != nil {
		t.Fatalf("EncodeFDID: %v", err)
	}
	if err := inst.Schema.Check(); err != nil {
		t.Fatalf("encoded schema invalid: %v", err)
	}
	// Original relations preserved, fresh ones added.
	if inst.Schema.Relation("R") == nil || inst.Schema.Relation("S") == nil {
		t.Error("original relations missing")
	}
	if len(inst.Schema.Relations()) != 2+3 {
		t.Errorf("expected 3 fresh relations, schema has %v", inst.Schema.Relations())
	}
	// Output contains only keys and foreign keys.
	for _, d := range inst.Sigma {
		switch d.(type) {
		case relational.Key, relational.ForeignKey:
		default:
			t.Errorf("encoded Σ contains %T", d)
		}
		if err := d.Validate(inst.Schema); err != nil {
			t.Errorf("encoded dependency invalid: %v", err)
		}
	}
	if err := inst.Phi.Validate(inst.Schema); err != nil {
		t.Errorf("goal key invalid: %v", err)
	}
}

func TestEncodeFDIDRejectsWrongClasses(t *testing.T) {
	s := relational.NewSchema()
	s.AddRelation("R", "a", "b")
	_, err := EncodeFDID(s, []relational.Dependency{relational.Key{Rel: "R", Attrs: []string{"a"}}},
		relational.FD{Rel: "R", From: []string{"a"}, To: []string{"b"}})
	if err == nil {
		t.Error("keys are not FDs/IDs input; should be rejected")
	}
}

// relationalInstanceSatisfiability brute-forces whether Θ ∧ ¬φ has an
// instance with at most maxTuples tuples per relation over a small domain.
func relationalInstanceSatisfiability(s *relational.Schema, theta []relational.Dependency, phi relational.Key, maxTuples int) bool {
	rels := s.Relations()
	// Enumerate tuple counts and value assignments: tiny search, schema
	// with ≤ 2 relations and ≤ 2 attributes each.
	var tryRel func(ri int, inst *relational.Instance) bool
	domain := []string{"0", "1", "2"}
	var tuplesFor func(rel *relational.Relation, k int, acc []relational.Tuple, out *[][]relational.Tuple)
	tuplesFor = func(rel *relational.Relation, k int, acc []relational.Tuple, out *[][]relational.Tuple) {
		if k == 0 {
			cp := append([]relational.Tuple(nil), acc...)
			*out = append(*out, cp)
			return
		}
		assignments := [][]string{{}}
		for range rel.Attrs {
			var next [][]string
			for _, a := range assignments {
				for _, v := range domain {
					next = append(next, append(append([]string{}, a...), v))
				}
			}
			assignments = next
		}
		for _, vals := range assignments {
			tp := relational.Tuple{}
			for i, a := range rel.Attrs {
				tp[a] = vals[i]
			}
			tuplesFor(rel, k-1, append(acc, tp), out)
		}
	}
	tryRel = func(ri int, inst *relational.Instance) bool {
		if ri == len(rels) {
			if ok, _ := relational.SatisfiedAll(inst, theta); !ok {
				return false
			}
			return !phi.SatisfiedBy(inst)
		}
		rel := s.Relation(rels[ri])
		for k := 0; k <= maxTuples; k++ {
			var options [][]relational.Tuple
			tuplesFor(rel, k, nil, &options)
			for _, tuples := range options {
				inst.Tuples[rel.Name] = nil
				for _, tp := range tuples {
					if err := inst.Insert(rel.Name, tp); err != nil {
						panic(err)
					}
				}
				if tryRel(ri+1, inst) {
					return true
				}
			}
		}
		inst.Tuples[rel.Name] = nil
		return false
	}
	return tryRel(0, relational.NewInstance(s))
}

func TestRelationalToXMLRoundTrip(t *testing.T) {
	// Schema: R(a,b) with Θ = {} and φ = R[a] → R. Θ ∧ ¬φ is satisfiable
	// (two tuples sharing a, differing on b); the XML spec must accept the
	// corresponding tree.
	s := relational.NewSchema()
	s.AddRelation("R", "a", "b")
	phi := relational.Key{Rel: "R", Attrs: []string{"a"}}
	spec, err := RelationalToXML(s, nil, phi)
	if err != nil {
		t.Fatalf("RelationalToXML: %v", err)
	}
	if err := constraint.ValidateSet(spec.DTD, spec.Sigma); err != nil {
		t.Fatalf("generated constraints invalid: %v", err)
	}

	inst := relational.NewInstance(s)
	for _, tp := range []relational.Tuple{
		{"a": "1", "b": "x"},
		{"a": "1", "b": "y"},
		{"a": "2", "b": "x"},
	} {
		if err := inst.Insert("R", tp); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := spec.TreeFromInstance(inst)
	if err != nil {
		t.Fatalf("TreeFromInstance: %v", err)
	}
	if !xmltree.Conforms(tree, spec.DTD) {
		t.Fatalf("tree does not conform:\n%s\n%s", spec.DTD, tree)
	}
	if ok, v := constraint.SatisfiedAll(tree, spec.Sigma); !ok {
		t.Fatalf("tree violates %s:\n%s", v, tree)
	}

	// Converse: reading the tree back yields an instance violating φ.
	back, err := spec.InstanceFromTree(s, tree)
	if err != nil {
		t.Fatalf("InstanceFromTree: %v", err)
	}
	if phi.SatisfiedBy(back) {
		t.Error("extracted instance satisfies φ; reduction broken")
	}
}

func TestRelationalToXMLUnsatisfiableSide(t *testing.T) {
	// Θ contains φ itself, so Θ ∧ ¬φ is unsatisfiable; any instance we can
	// build either violates Θ or satisfies φ (so TreeFromInstance fails).
	s := relational.NewSchema()
	s.AddRelation("R", "a", "b")
	phi := relational.Key{Rel: "R", Attrs: []string{"a"}}
	spec, err := RelationalToXML(s, []relational.Dependency{phi}, phi)
	if err != nil {
		t.Fatalf("RelationalToXML: %v", err)
	}
	inst := relational.NewInstance(s)
	_ = inst.Insert("R", relational.Tuple{"a": "1", "b": "x"})
	_ = inst.Insert("R", relational.Tuple{"a": "2", "b": "y"})
	if _, err := spec.TreeFromInstance(inst); err == nil {
		t.Error("instance satisfying φ must not yield a ¬φ witness tree")
	}
	if !relationalInstanceSatisfiability(s, nil, phi, 2) {
		t.Error("sanity: ¬φ alone should be satisfiable")
	}
	if relationalInstanceSatisfiability(s, []relational.Dependency{phi}, phi, 2) {
		t.Error("sanity: φ ∧ ¬φ should be unsatisfiable")
	}
}

func TestRelationalToXMLRejectsFullKey(t *testing.T) {
	s := relational.NewSchema()
	s.AddRelation("R", "a")
	phi := relational.Key{Rel: "R", Attrs: []string{"a"}}
	if _, err := RelationalToXML(s, nil, phi); err == nil {
		t.Error("X = Att(R) has no negation witness; must be rejected")
	}
}

func TestLemma33KeyImplicationRoundTrip(t *testing.T) {
	// With unary Σ both sides are decidable: Σ consistent over D iff the
	// reduced implication does NOT hold.
	cases := []struct {
		d          *dtd.DTD
		sigma      string
		consistent bool
	}{
		{dtd.Teachers(), "teacher.name -> teacher", true},
		{dtd.Teachers(), constraint.Sigma1Source, false},
	}
	for i, tc := range cases {
		sigma := constraint.MustParse(tc.sigma)
		inst, err := ConsistencyToKeyImplication(tc.d, sigma)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		imp, err := implies(inst.DTD, inst.Sigma, inst.Phi, &core.Options{SkipWitness: true})
		if err != nil {
			t.Fatalf("case %d: Implies: %v", i, err)
		}
		if imp.Implied == tc.consistent {
			t.Errorf("case %d: consistency=%v but implication=%v (want opposites)",
				i, tc.consistent, imp.Implied)
		}
	}
}

func TestLemma33InclusionImplicationRoundTrip(t *testing.T) {
	cases := []struct {
		d          *dtd.DTD
		sigma      string
		consistent bool
	}{
		{dtd.Teachers(), "subject.taught_by -> subject", true},
		{dtd.Teachers(), constraint.Sigma1Source, false},
	}
	for i, tc := range cases {
		sigma := constraint.MustParse(tc.sigma)
		inst, err := ConsistencyToInclusionImplication(tc.d, sigma)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		imp, err := implies(inst.DTD, inst.Sigma, inst.Phi, &core.Options{SkipWitness: true})
		if err != nil {
			t.Fatalf("case %d: Implies: %v", i, err)
		}
		if imp.Implied == tc.consistent {
			t.Errorf("case %d: consistency=%v but implication=%v (want opposites)",
				i, tc.consistent, imp.Implied)
		}
	}
}

func TestLemma33FreshNames(t *testing.T) {
	// A DTD already using DY/EX/K must still reduce cleanly.
	d := dtd.MustParse(`
<!ELEMENT DY (EX)>
<!ELEMENT EX (#PCDATA)>
<!ATTLIST EX K CDATA #REQUIRED>
`)
	inst, err := ConsistencyToKeyImplication(d, nil)
	if err != nil {
		t.Fatalf("ConsistencyToKeyImplication: %v", err)
	}
	if err := inst.DTD.Check(); err != nil {
		t.Fatalf("reduced DTD invalid: %v", err)
	}
	if err := constraint.ValidateSet(inst.DTD, inst.Sigma); err != nil {
		t.Fatalf("reduced Σ invalid: %v", err)
	}
}

// bruteLIP searches for a binary solution of A·x = (1,…,1).
func bruteLIP(a [][]int) []int {
	n := len(a[0])
	for bits := 0; bits < 1<<uint(n); bits++ {
		x := make([]int, n)
		for j := 0; j < n; j++ {
			if bits&(1<<uint(j)) != 0 {
				x[j] = 1
			}
		}
		good := true
		for _, row := range a {
			sum := 0
			for j, v := range row {
				sum += v * x[j]
			}
			if sum != 1 {
				good = false
				break
			}
		}
		if good {
			return x
		}
	}
	return nil
}

func TestLIPToSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		m := 1 + rng.Intn(3)
		n := 1 + rng.Intn(3)
		a := make([][]int, m)
		for i := range a {
			a[i] = make([]int, n)
			for j := range a[i] {
				a[i][j] = rng.Intn(2)
			}
		}
		spec, err := LIPToSpec(a)
		if err != nil {
			t.Fatalf("LIPToSpec(%v): %v", a, err)
		}
		if err := constraint.ValidateSet(spec.DTD, spec.Sigma); err != nil {
			t.Fatalf("spec constraints invalid: %v", err)
		}
		res, err := consistent(spec.DTD, spec.Sigma, nil)
		if err != nil {
			t.Fatalf("Consistent on reduction of %v: %v", a, err)
		}
		want := bruteLIP(a)
		if res.Consistent != (want != nil) {
			t.Fatalf("matrix %v: consistency=%v, brute solution=%v", a, res.Consistent, want)
		}
		if res.Consistent {
			x := spec.Solution(res.Witness)
			if !spec.Eval(x) {
				t.Fatalf("matrix %v: extracted solution %v does not satisfy A·x = 1\nwitness:\n%s",
					a, x, res.Witness)
			}
		}
	}
}

func TestLIPToSpecKnownInstances(t *testing.T) {
	// x1 + x2 = 1, x2 + x3 = 1, x1 + x3 = 1: odd cycle, no binary solution.
	odd := [][]int{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}}
	spec, err := LIPToSpec(odd)
	if err != nil {
		t.Fatalf("LIPToSpec: %v", err)
	}
	res, err := consistent(spec.DTD, spec.Sigma, &core.Options{SkipWitness: true})
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("odd-cycle instance has no solution; spec should be inconsistent")
	}

	// Identity: x = (1, 1).
	id := [][]int{{1, 0}, {0, 1}}
	spec, err = LIPToSpec(id)
	if err != nil {
		t.Fatalf("LIPToSpec: %v", err)
	}
	res, err = consistent(spec.DTD, spec.Sigma, nil)
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if !res.Consistent {
		t.Fatal("identity instance solvable; spec should be consistent")
	}
	if x := spec.Solution(res.Witness); x[0] != 1 || x[1] != 1 {
		t.Errorf("extracted solution %v, want [1 1]", x)
	}
}

func TestLIPToSpecValidation(t *testing.T) {
	if _, err := LIPToSpec(nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := LIPToSpec([][]int{{2}}); err == nil {
		t.Error("non-binary entry accepted")
	}
	if _, err := LIPToSpec([][]int{{1, 0}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	// All-zero row is trivially unsolvable but must encode, not error.
	spec, err := LIPToSpec([][]int{{0, 0}})
	if err != nil {
		t.Fatalf("all-zero row: %v", err)
	}
	res, err := consistent(spec.DTD, spec.Sigma, &core.Options{SkipWitness: true})
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Consistent {
		t.Error("all-zero row cannot sum to 1; spec should be inconsistent")
	}
}

func TestRelationalSubstrate(t *testing.T) {
	s := relational.NewSchema()
	s.AddRelation("R", "a", "b")
	inst := relational.NewInstance(s)
	if err := inst.Insert("R", relational.Tuple{"a": "1", "b": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", relational.Tuple{"a": "1", "b": "y"}); err != nil {
		t.Fatal(err)
	}
	key := relational.Key{Rel: "R", Attrs: []string{"a"}}
	if key.SatisfiedBy(inst) {
		t.Error("violated key reported satisfied")
	}
	fd := relational.FD{Rel: "R", From: []string{"b"}, To: []string{"a"}}
	if !fd.SatisfiedBy(inst) {
		t.Error("satisfied FD reported violated")
	}
	id := relational.ID{Child: "R", ChildAttrs: []string{"a"}, Parent: "R", ParentAttrs: []string{"b"}}
	if id.SatisfiedBy(inst) {
		t.Error("R[a] ⊆ R[b] should fail: value 1 is no b value")
	}

	if err := inst.Insert("R", relational.Tuple{"a": "1"}); err == nil {
		t.Error("arity-violating tuple accepted")
	}
	if err := inst.Insert("Q", relational.Tuple{"a": "1"}); err == nil {
		t.Error("tuple for unknown relation accepted")
	}
}

func TestDependencyStrings(t *testing.T) {
	deps := []relational.Dependency{
		relational.Key{Rel: "R", Attrs: []string{"a", "b"}},
		relational.FD{Rel: "R", From: []string{"a"}, To: []string{"b"}},
		relational.ID{Child: "S", ChildAttrs: []string{"d"}, Parent: "R", ParentAttrs: []string{"a"}},
		relational.ForeignKey{ID: relational.ID{Child: "S", ChildAttrs: []string{"d"}, Parent: "R", ParentAttrs: []string{"a"}}},
	}
	for _, d := range deps {
		if strings.TrimSpace(d.String()) == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
	_ = fmt.Sprintf("%v", deps)
}
