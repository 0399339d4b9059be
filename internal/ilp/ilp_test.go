package ilp

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"xic/internal/linear"
	"xic/internal/simplex"
)

func mustSolve(t *testing.T, s *linear.System) *Result {
	t.Helper()
	res, err := Solve(context.Background(), s, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestFeasibleSimple(t *testing.T) {
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddEq(linear.Term(x, 1).Plus(y, 1), 3)
	s.AddGe(linear.Term(x, 1), 1)
	res := mustSolve(t, s)
	if !res.Feasible {
		t.Fatal("system should be feasible")
	}
	if msg := s.EvalBig(res.Values); msg != "" {
		t.Errorf("returned solution invalid: %s", msg)
	}
}

func TestInfeasibleByContradiction(t *testing.T) {
	s := linear.NewSystem()
	x := s.Var("x")
	s.AddGe(linear.Term(x, 1), 5)
	s.AddLe(linear.Term(x, 1), 3)
	if res := mustSolve(t, s); res.Feasible {
		t.Error("contradictory bounds reported feasible")
	}
}

func TestIntegrality(t *testing.T) {
	// 2x = 3 has a rational solution but no integer one.
	s := linear.NewSystem()
	x := s.Var("x")
	s.AddEq(linear.Term(x, 2), 3)
	if res := mustSolve(t, s); res.Feasible {
		t.Error("2x=3 reported integer-feasible")
	}
}

func TestGCDPreprocessing(t *testing.T) {
	// 2x − 2y = 1: LP-feasible for arbitrarily large x, never in integers.
	// Without the Diophantine check this diverges in branch-and-bound.
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddEq(linear.Term(x, 2).Plus(y, -2), 1)
	res := mustSolve(t, s)
	if res.Feasible {
		t.Error("2x−2y=1 reported feasible")
	}
	if res.Nodes > 0 {
		t.Errorf("GCD preprocessing should decide before search, explored %d nodes", res.Nodes)
	}
}

func TestBranchingRequired(t *testing.T) {
	// x + 2y = 5, x ≤ 3: LP vertex may be fractional under min-sum; the
	// integral solutions are (1,2) and (3,1).
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddEq(linear.Term(x, 1).Plus(y, 2), 5)
	s.AddLe(linear.Term(x, 1), 3)
	res := mustSolve(t, s)
	if !res.Feasible {
		t.Fatal("feasible system rejected")
	}
	if msg := s.EvalBig(res.Values); msg != "" {
		t.Errorf("solution invalid: %s", msg)
	}
}

func TestImplications(t *testing.T) {
	// y ≤ x, implication x>0 → y>0, and x ≥ 2: needs the y ≥ 1 branch.
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddLe(linear.Term(y, 1).Plus(x, -1), 0)
	s.AddGe(linear.Term(x, 1), 2)
	s.AddImplication(x, y)
	res := mustSolve(t, s)
	if !res.Feasible {
		t.Fatal("feasible system with implication rejected")
	}
	if msg := s.EvalBig(res.Values); msg != "" {
		t.Errorf("solution invalid: %s", msg)
	}
	if res.Values[y].Sign() <= 0 {
		t.Errorf("y = %s, want positive (implication)", res.Values[y])
	}
}

func TestImplicationForcesInfeasible(t *testing.T) {
	// x ≥ 1, y = 0, x>0 → y>0: infeasible.
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddGe(linear.Term(x, 1), 1)
	s.AddEq(linear.Term(y, 1), 0)
	s.AddImplication(x, y)
	if res := mustSolve(t, s); res.Feasible {
		t.Error("implication-violating system reported feasible")
	}
}

func TestImplicationChains(t *testing.T) {
	// a>0→b>0, b>0→c>0, with a ≥ 1 and c ≤ 5.
	s := linear.NewSystem()
	a := s.Var("a")
	b := s.Var("b")
	c := s.Var("c")
	s.AddGe(linear.Term(a, 1), 1)
	s.AddLe(linear.Term(c, 1), 5)
	s.AddImplication(a, b)
	s.AddImplication(b, c)
	res := mustSolve(t, s)
	if !res.Feasible {
		t.Fatal("chained implications rejected")
	}
	if res.Values[b].Sign() <= 0 || res.Values[c].Sign() <= 0 {
		t.Errorf("chain not propagated: b=%s c=%s", res.Values[b], res.Values[c])
	}
}

func TestEmptySystem(t *testing.T) {
	s := linear.NewSystem()
	res := mustSolve(t, s)
	if !res.Feasible {
		t.Error("empty system should be trivially feasible")
	}
}

func TestNodeLimit(t *testing.T) {
	// A system engineered to branch: x1 + … + x6 = 3 with many fractional
	// symmetric constraints; a node limit of 1 must trip.
	s := linear.NewSystem()
	var ids []int
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		ids = append(ids, s.Var(n))
	}
	e := linear.Expr{}
	for _, id := range ids {
		e.Plus(id, 2)
	}
	s.AddEq(e, 7) // 2Σx = 7: infeasible but caught by GCD... use ≥ instead
	s2 := linear.NewSystem()
	x := s2.Var("x")
	y := s2.Var("y")
	s2.AddGe(linear.Term(x, 2).Plus(y, 2), 7)
	s2.AddLe(linear.Term(x, 2).Plus(y, 2), 7)
	_, err := Solve(context.Background(), s2, &Options{MaxNodes: 1})
	if err == nil {
		t.Skip("system solved within one node; limit not exercised")
	}
	if !errors.Is(err, ErrNodeLimit) {
		t.Errorf("error = %v, want ErrNodeLimit", err)
	}
}

func TestSolveMatrix(t *testing.T) {
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddEq(linear.Term(x, 1).Plus(y, 1), 4)
	s.AddGe(linear.Term(x, 1), 1)
	m, err := s.MatrixGE()
	if err != nil {
		t.Fatalf("MatrixGE: %v", err)
	}
	res, err := SolveMatrix(context.Background(), m, nil)
	if err != nil {
		t.Fatalf("SolveMatrix: %v", err)
	}
	if !res.Feasible {
		t.Fatal("matrix form of feasible system rejected")
	}
	if !m.Eval(res.Values) {
		t.Error("returned matrix solution does not satisfy A·x ≥ b")
	}
}

func TestBigMAgreesWithNativeImplications(t *testing.T) {
	// Cross-check Theorem 4.1's big-M rewrite against native implication
	// branching on small systems.
	cases := []func() *linear.System{
		func() *linear.System { // feasible, implication forces y ≥ 1
			s := linear.NewSystem()
			x, y := s.Var("x"), s.Var("y")
			s.AddLe(linear.Term(y, 1).Plus(x, -1), 0)
			s.AddGe(linear.Term(x, 1), 2)
			s.AddImplication(x, y)
			return s
		},
		func() *linear.System { // infeasible via implication
			s := linear.NewSystem()
			x, y := s.Var("x"), s.Var("y")
			s.AddGe(linear.Term(x, 1), 1)
			s.AddEq(linear.Term(y, 1), 0)
			s.AddImplication(x, y)
			return s
		},
		func() *linear.System { // feasible with x = 0 branch
			s := linear.NewSystem()
			x, y := s.Var("x"), s.Var("y")
			s.AddEq(linear.Term(y, 1), 0)
			s.AddLe(linear.Term(x, 1), 5)
			s.AddImplication(x, y)
			return s
		},
	}
	for i, mk := range cases {
		native, err := Solve(context.Background(), mk(), nil)
		if err != nil {
			t.Fatalf("case %d native: %v", i, err)
		}
		viaBigM, err := SolveMatrix(context.Background(), mk().BigM(), nil)
		if err != nil {
			t.Fatalf("case %d bigM: %v", i, err)
		}
		if native.Feasible != viaBigM.Feasible {
			t.Errorf("case %d: native=%v bigM=%v", i, native.Feasible, viaBigM.Feasible)
		}
	}
}

// bruteForce enumerates assignments in [0,bound]^n.
func bruteForce(s *linear.System, bound int64) bool {
	n := s.VarCount()
	x := make([]int64, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return s.Eval(x) == ""
		}
		for v := int64(0); v <= bound; v++ {
			x[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		s := linear.NewSystem()
		n := 1 + rng.Intn(3)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = s.Var(string(rune('a' + i)))
		}
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			e := linear.Expr{}
			for _, id := range ids {
				if c := int64(rng.Intn(5) - 2); c != 0 {
					e.Plus(id, c)
				}
			}
			rhs := int64(rng.Intn(7) - 1)
			switch rng.Intn(3) {
			case 0:
				s.AddEq(e, rhs)
			case 1:
				s.AddLe(e, rhs)
			default:
				s.AddGe(e, rhs)
			}
		}
		// Cap all variables so brute force within [0,4] is exact.
		for _, id := range ids {
			s.AddLe(linear.Term(id, 1), 4)
		}
		if n >= 2 && rng.Intn(2) == 0 {
			s.AddImplication(ids[0], ids[1])
		}
		want := bruteForce(s, 4)
		res, err := Solve(context.Background(), s, &Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, s)
		}
		if res.Feasible != want {
			t.Fatalf("trial %d: solver=%v brute=%v\n%s", trial, res.Feasible, want, s)
		}
		if res.Feasible {
			if msg := s.EvalBig(res.Values); msg != "" {
				t.Fatalf("trial %d: invalid solution: %s\n%s", trial, msg, s)
			}
		}
	}
}

func TestValuesAreSmall(t *testing.T) {
	// The min-sum objective keeps witnesses small: x+y ≥ 10 should give
	// total exactly 10.
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 10)
	res := mustSolve(t, s)
	total := new(big.Int).Add(res.Values[x], res.Values[y])
	if total.Cmp(big.NewInt(10)) != 0 {
		t.Errorf("min-sum solution has total %s, want 10", total)
	}
}

// TestUnboundedReportsInternal forces the defensive simplex.Unbounded
// branch (unreachable through well-formed inputs, since min Σx over x ≥ 0
// is bounded below) and checks it behaves like every other solver-failure
// path: a non-nil Result carrying the node count, and an error wrapping
// ErrInternal so the Spec boundary can classify it.
func TestUnboundedReportsInternal(t *testing.T) {
	orig := solveLP
	solveLP = func(ctx context.Context, spec *problemSpec, nd *node, stop func() bool) *simplex.Solution {
		return &simplex.Solution{Status: simplex.Unbounded}
	}
	defer func() { solveLP = orig }()

	s := linear.NewSystem()
	x := s.Var("x")
	s.AddGe(linear.Term(x, 1).Plus(s.Var("y"), 1), 3) // survives presolve
	res, err := Solve(context.Background(), s, nil)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("error = %v, want ErrInternal", err)
	}
	if res == nil {
		t.Fatal("Result is nil on the unbounded path; callers reading Nodes would panic")
	}
	if res.Nodes != 1 {
		t.Errorf("Nodes = %d, want 1", res.Nodes)
	}
}

// TestSpecFromSystemSkipsZeroCoefficients: explicit zero entries in an
// expression must not reach the simplex rows — they would densify the
// tableau without constraining anything.
func TestSpecFromSystemSkipsZeroCoefficients(t *testing.T) {
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	z := s.Var("z")
	e := linear.Expr{x: 1, y: 0, z: 0} // bypass Plus, which strips zeros
	s.AddGe(e, 1)
	spec := specFromSystem(s)
	if len(spec.rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(spec.rows))
	}
	terms := spec.rows[0].Terms
	if len(terms) != 1 {
		t.Fatalf("row has %d coefficients, want 1 (zeros must be skipped): %v", len(terms), terms)
	}
	if terms[0].Col != x {
		t.Errorf("nonzero coefficient for x missing: %v", terms)
	}
}

// oddCycleSystem is the fractional 0/1 gadget of Theorem 4.7's reduction:
// the LP relaxation optimum is x = (½,½,½), so deciding it needs at least
// one branching step beyond the root.
func oddCycleSystem() *linear.System {
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	for _, pair := range [][2]int{{x, y}, {y, z}, {x, z}} {
		s.AddGe(linear.Term(pair[0], 1).Plus(pair[1], 1), 1)
	}
	for _, v := range []int{x, y, z} {
		s.AddLe(linear.Term(v, 1), 1)
	}
	return s
}

// TestNodeAccounting pins the accounting contract: Result.Nodes counts LP
// solves and never exceeds MaxNodes — the search stops before starting
// node MaxNodes+1 rather than overrunning the budget by one.
func TestNodeAccounting(t *testing.T) {
	for _, disable := range []bool{false, true} {
		res, err := Solve(context.Background(), oddCycleSystem(), &Options{MaxNodes: 1, DisablePresolve: disable})
		if !errors.Is(err, ErrNodeLimit) {
			t.Fatalf("disable=%v: error = %v, want ErrNodeLimit", disable, err)
		}
		if res == nil {
			t.Fatalf("disable=%v: nil Result on the limit path", disable)
		}
		if res.Nodes != 1 {
			t.Errorf("disable=%v: Nodes = %d, want exactly MaxNodes=1", disable, res.Nodes)
		}
	}
	// With budget, the same system solves and stays within it.
	res, err := Solve(context.Background(), oddCycleSystem(), &Options{MaxNodes: 50})
	if err != nil || !res.Feasible {
		t.Fatalf("odd cycle should be feasible: %v %v", res, err)
	}
	if res.Nodes > 50 {
		t.Errorf("Nodes = %d exceeds MaxNodes", res.Nodes)
	}
}

// TestGCDDecidesWithZeroNodes: deciding before any LP reports Nodes 0 on
// both the presolve and the raw GCD paths — accounting is consistent.
func TestGCDDecidesWithZeroNodes(t *testing.T) {
	for _, disable := range []bool{false, true} {
		s := linear.NewSystem()
		x, y := s.Var("x"), s.Var("y")
		s.AddEq(linear.Term(x, 2).Plus(y, -2), 1)
		res, err := Solve(context.Background(), s, &Options{DisablePresolve: disable})
		if err != nil || res.Feasible {
			t.Fatalf("disable=%v: 2x-2y=1 should be infeasible: %v %v", disable, res, err)
		}
		if res.Nodes != 0 {
			t.Errorf("disable=%v: Nodes = %d, want 0 (decided before any LP)", disable, res.Nodes)
		}
	}
}

// TestStatsPresolveDecided: a system presolve fully fixes reports the
// presolve-decided counter and no solver work at all.
func TestStatsPresolveDecided(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddEq(linear.Term(x, 1), 1)
	s.AddEq(linear.Term(x, 1).Plus(y, -1), 0)
	res, err := Solve(context.Background(), s, nil)
	if err != nil || !res.Feasible {
		t.Fatalf("chain should be feasible: %v %v", res, err)
	}
	if !res.Stats.PresolveDecided || !res.Stats.PresolveUsed {
		t.Errorf("expected PresolveDecided, got %+v", res.Stats)
	}
	if res.Nodes != 0 || res.Stats.Pivots != 0 {
		t.Errorf("presolve-decided answer did solver work: %+v", res)
	}
	if res.Values[x].Cmp(big.NewInt(1)) != 0 || res.Values[y].Cmp(big.NewInt(1)) != 0 {
		t.Errorf("values = %v, want [1 1]", res.Values)
	}
}

// TestStatsFastPath: no conditional constraints and an integral root LP
// optimum decide in exactly one node with the fast-path flag set.
func TestStatsFastPath(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 10) // integral min-sum optimum
	res, err := Solve(context.Background(), s, nil)
	if err != nil || !res.Feasible {
		t.Fatalf("want feasible: %v %v", res, err)
	}
	if !res.Stats.FastPath {
		t.Errorf("expected FastPath, got %+v", res.Stats)
	}
	if res.Nodes != 1 {
		t.Errorf("Nodes = %d, want 1", res.Nodes)
	}
	if res.Stats.Pivots == 0 {
		t.Errorf("expected pivot accounting from the root LP, got %+v", res.Stats)
	}
}

// TestFixedValuesMergedIntoWitness: variables presolve substitutes out must
// reappear in the solver's witness with their fixed values.
func TestFixedValuesMergedIntoWitness(t *testing.T) {
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddEq(linear.Term(x, 1), 3)            // fixed by presolve
	s.AddGe(linear.Term(y, 1).Plus(z, 1), 1) // free part
	s.AddLe(linear.Term(y, 1), 4)
	res, err := Solve(context.Background(), s, nil)
	if err != nil || !res.Feasible {
		t.Fatalf("want feasible: %v %v", res, err)
	}
	if res.Values[x].Cmp(big.NewInt(3)) != 0 {
		t.Errorf("fixed variable x = %s, want 3", res.Values[x])
	}
	if msg := s.EvalBig(res.Values); msg != "" {
		t.Errorf("merged witness invalid: %s", msg)
	}
}

// TestPresolveOnOffAgree cross-validates the full pipeline against the raw
// search on random small systems (the package-level miniature of the
// core brute-force cross-validation).
func TestPresolveOnOffAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := linear.NewSystem()
		n := 1 + rng.Intn(4)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = s.Var(string(rune('a' + i)))
		}
		rows := 1 + rng.Intn(4)
		for r := 0; r < rows; r++ {
			e := linear.Expr{}
			for _, id := range ids {
				if c := int64(rng.Intn(7) - 3); c != 0 {
					e.Plus(id, c)
				}
			}
			rhs := int64(rng.Intn(9) - 2)
			switch rng.Intn(3) {
			case 0:
				s.AddEq(e, rhs)
			case 1:
				s.AddLe(e, rhs)
			default:
				s.AddGe(e, rhs)
			}
		}
		for _, id := range ids {
			s.AddLe(linear.Term(id, 1), 6)
		}
		if n >= 2 {
			for k := 0; k < rng.Intn(3); k++ {
				s.AddImplication(ids[rng.Intn(n)], ids[rng.Intn(n)])
			}
		}
		on, errOn := Solve(context.Background(), s, &Options{MaxNodes: 50000})
		off, errOff := Solve(context.Background(), s, &Options{MaxNodes: 50000, DisablePresolve: true})
		if errOn != nil || errOff != nil {
			t.Fatalf("trial %d: on=%v off=%v\n%s", trial, errOn, errOff, s)
		}
		if on.Feasible != off.Feasible {
			t.Fatalf("trial %d: presolve=%v raw=%v\n%s", trial, on.Feasible, off.Feasible, s)
		}
		if on.Feasible {
			if msg := s.EvalBig(on.Values); msg != "" {
				t.Fatalf("trial %d: presolved witness invalid: %s\n%s", trial, msg, s)
			}
		}
	}
}
