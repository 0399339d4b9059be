package presolve

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"xic/internal/linear"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func TestDivCeilFloor(t *testing.T) {
	cases := []struct {
		b, a, ceil, floor int64
		overflow          bool
	}{
		{7, 2, 4, 3, false},
		{-7, 2, -3, -4, false},
		{7, -2, -3, -4, false},
		{-7, -2, 4, 3, false},
		{6, 3, 2, 2, false},
		{-6, 3, -2, -2, false},
		{0, 5, 0, 0, false},
		{1, 1, 1, 1, false},
		{math.MaxInt64, 2, 1 << 62, 1<<62 - 1, false},
		{math.MinInt64, 2, -1 << 62, -1 << 62, false},
		{math.MinInt64 + 1, -1, math.MaxInt64, math.MaxInt64, false},
		{math.MinInt64, 1, math.MinInt64, math.MinInt64, false},
		{math.MinInt64, -1, 0, 0, true}, // 2^63 does not fit
	}
	for _, c := range cases {
		st := &state{}
		ceil := st.divCeil(c.b, c.a)
		if st.overflow != c.overflow || (!c.overflow && ceil != c.ceil) {
			t.Errorf("divCeil(%d,%d) = %d (overflow %v), want %d (overflow %v)", c.b, c.a, ceil, st.overflow, c.ceil, c.overflow)
		}
		st = &state{}
		floor := st.divFloor(c.b, c.a)
		if st.overflow != c.overflow || (!c.overflow && floor != c.floor) {
			t.Errorf("divFloor(%d,%d) = %d (overflow %v), want %d (overflow %v)", c.b, c.a, floor, st.overflow, c.floor, c.overflow)
		}
	}
}

// The ext-chain shape of the cardinality encodings: a unit equality pins
// the root, two-variable equalities propagate the value down the chain.
// Presolve must decide it with no system left over.
func TestEqualityChainFullyFixed(t *testing.T) {
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddEq(linear.Term(x, 1), 1)
	s.AddEq(linear.Term(x, 1).Plus(y, -1), 0)
	s.AddEq(linear.Term(y, 1).Plus(z, -1), 0)
	res := Run(s)
	if !res.Decided || !res.Feasible {
		t.Fatalf("chain not decided feasible: %+v", res)
	}
	for _, j := range []int{x, y, z} {
		if res.Values[j].Cmp(bi(1)) != 0 {
			t.Errorf("var %d = %s, want 1", j, res.Values[j])
		}
	}
	if res.Stats.VarsFixed != 3 {
		t.Errorf("VarsFixed = %d, want 3", res.Stats.VarsFixed)
	}
}

func TestConflictingFixesInfeasible(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddEq(linear.Term(x, 1), 1)
	s.AddEq(linear.Term(x, 1).Plus(y, -1), 0)
	s.AddEq(linear.Term(y, 1), 2)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("conflicting chain not refuted: %+v", res)
	}
}

func TestGCDTightening(t *testing.T) {
	// 3x + 3y ≥ 7 tightens to x + y ≥ 3 over the integers.
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 3).Plus(y, 3), 7)
	res := Run(s)
	if res.Decided {
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	if res.Stats.Tightened != 1 {
		t.Errorf("Tightened = %d, want 1", res.Stats.Tightened)
	}
	cons := res.Sys.Constraints()
	if len(cons) != 1 || cons[0].Op != linear.Ge || cons[0].Const != 3 {
		t.Fatalf("reduced rows = %v, want one x+y >= 3", cons)
	}
	if cons[0].Expr[x] != 1 || cons[0].Expr[y] != 1 {
		t.Errorf("coefficients not divided by gcd: %v", cons[0].Expr)
	}
}

func TestGCDEqualityInfeasible(t *testing.T) {
	// 2x − 2y = 1 is Diophantine-infeasible.
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddEq(linear.Term(x, 2).Plus(y, -2), 1)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("2x-2y=1 not refuted: %+v", res)
	}
}

func TestForcedImplicationBecomesBound(t *testing.T) {
	// x ≥ 2 forces the conditional x>0 → y>0 into y ≥ 1.
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1), 2)
	s.AddLe(linear.Term(x, 1).Plus(y, 1), 10) // keep both variables live
	s.AddImplication(x, y)
	res := Run(s)
	if res.Decided {
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	if len(res.Sys.Implications()) != 0 {
		t.Errorf("implication not resolved: %v", res.Sys.Implications())
	}
	if res.Stats.ImplicationsOut != 0 || res.Stats.Implications != 1 {
		t.Errorf("implication stats = %+v", res.Stats)
	}
	found := false
	for _, c := range res.Sys.Constraints() {
		if len(c.Expr) == 1 && c.Expr[y] == 1 && c.Op == linear.Ge && c.Const == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("y >= 1 missing from reduced system:\n%s", res.Sys)
	}
}

func TestZeroPropagatesTransitively(t *testing.T) {
	// c ≤ 0 zeroes c; through a→b→c backwards, a and b must be zero too.
	s := linear.NewSystem()
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	s.AddLe(linear.Term(c, 1), 0)
	s.AddImplication(a, b)
	s.AddImplication(b, c)
	res := Run(s)
	if !res.Decided || !res.Feasible {
		t.Fatalf("zero chain not decided feasible: %+v", res)
	}
	for _, j := range []int{a, b, c} {
		if res.Values[j].Sign() != 0 {
			t.Errorf("var %d = %s, want 0", j, res.Values[j])
		}
	}
}

func TestZeroConsequentWithPositiveAntecedentInfeasible(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1), 1)
	s.AddEq(linear.Term(y, 1), 0)
	s.AddImplication(x, y)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("x>=1, y=0, x>0→y>0 not refuted: %+v", res)
	}
}

func TestDominatedRowsMerge(t *testing.T) {
	// Two ≥-rows over one expression keep the stronger constant; adding the
	// opposite inequality at the same constant closes the window into an
	// equality.
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 3)
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 5)
	s.AddLe(linear.Term(x, 1).Plus(y, 1), 5)
	res := Run(s)
	if res.Decided {
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	var multi []linear.Constraint
	for _, c := range res.Sys.Constraints() {
		if len(c.Expr) > 1 {
			multi = append(multi, c)
		}
	}
	if len(multi) != 1 || multi[0].Op != linear.Eq || multi[0].Const != 5 {
		t.Fatalf("merged rows = %v, want one x+y = 5", multi)
	}
}

func TestContradictoryWindowInfeasible(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 10)
	s.AddLe(linear.Term(x, 1).Plus(y, 1), 9)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("empty window not refuted: %+v", res)
	}
}

func TestBoundsOnlyDecidedAtLeastPoint(t *testing.T) {
	// a ≥ 1 and chained implications leave only bounds; the least point
	// a=b=c=1 decides feasibility with no LP.
	s := linear.NewSystem()
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	s.AddGe(linear.Term(a, 1), 1)
	s.AddLe(linear.Term(c, 1), 5)
	s.AddImplication(a, b)
	s.AddImplication(b, c)
	res := Run(s)
	if !res.Decided || !res.Feasible {
		t.Fatalf("bounds-only system not decided: %+v", res)
	}
	for _, j := range []int{a, b, c} {
		if res.Values[j].Cmp(bi(1)) != 0 {
			t.Errorf("var %d = %s, want 1 (least point)", j, res.Values[j])
		}
	}
	if msg := s.EvalBig(res.Values); msg != "" {
		t.Errorf("witness invalid: %s", msg)
	}
}

func TestDivergentBoundsStillSound(t *testing.T) {
	// x ≥ y+1 and y ≥ x+1 push both lower bounds upward forever; the round
	// cap stops the spiral, and the row-merge pass then refutes the pair
	// outright (the two rows close an empty window over x − y).
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, -1), 1)
	s.AddGe(linear.Term(y, 1).Plus(x, -1), 1)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("x-y>=1 ∧ y-x>=1 should be refuted: %+v", res)
	}
	if res.Stats.Rounds < maxRounds {
		t.Errorf("Rounds = %d; the spiral should have hit the cap", res.Stats.Rounds)
	}
}

func TestDivergentSpiralKeepsDeductions(t *testing.T) {
	// A three-variable spiral (x ≥ y+1, y ≥ x+1) alongside an unrelated
	// forced implication: the cap must not discard the sound deductions —
	// the implication still resolves into z ≥ 1 in the reduced system.
	s := linear.NewSystem()
	x, y, z, w := s.Var("x"), s.Var("y"), s.Var("z"), s.Var("w")
	s.AddGe(linear.Term(x, 1).Plus(y, -1).Plus(w, 1), 1)
	s.AddGe(linear.Term(y, 1).Plus(x, -1).Plus(w, 1), 1)
	s.AddGe(linear.Term(w, 1), 2)
	s.AddImplication(w, z)
	res := Run(s)
	if res.Decided {
		// Feasible (w large enough), so cap-stabilized reduction expected.
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	if got := len(res.Sys.Implications()); got != 0 {
		t.Errorf("forced implication survived the cap path: %d left", got)
	}
	found := false
	for _, c := range res.Sys.Constraints() {
		if len(c.Expr) == 1 && c.Expr[z] == 1 && c.Op == linear.Ge && c.Const >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("z >= 1 missing after cap stabilization:\n%s", res.Sys)
	}
}

func TestOverflowBailsToInput(t *testing.T) {
	// Propagation would drive y's lower bound past int64: already the
	// activity term −4x at x ≥ 2^62 leaves it, so presolve must stop and
	// hand back the input unchanged.
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddGe(linear.Term(x, 1), 1<<62)
	s.AddGe(linear.Term(y, 1).Plus(x, -4), 0) // y ≥ 4x ≥ 2^64
	s.AddGe(linear.Term(y, 1).Plus(z, 1), 5)  // keep a multi-var row alive
	res := Run(s)
	if res.Decided {
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	if !res.Stats.Bailed {
		t.Errorf("expected int64-overflow bail, got %+v", res.Stats)
	}
	if res.Sys != s {
		t.Errorf("bailed presolve should return the input system unreduced")
	}
}

func TestFixedValuesSubstitutedOutOfRows(t *testing.T) {
	// x = 2 fixed; the row x + y + z ≥ 5 must survive as y + z ≥ 3.
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddEq(linear.Term(x, 1), 2)
	s.AddGe(linear.Term(x, 1).Plus(y, 1).Plus(z, 1), 5)
	res := Run(s)
	if res.Decided {
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	if res.Fixed[x] == nil || res.Fixed[x].Cmp(bi(2)) != 0 {
		t.Fatalf("x not fixed to 2: %v", res.Fixed)
	}
	for _, c := range res.Sys.Constraints() {
		if _, ok := c.Expr[x]; ok {
			t.Errorf("fixed variable x still appears in row %v", c)
		}
	}
	found := false
	for _, c := range res.Sys.Constraints() {
		if len(c.Expr) == 2 && c.Expr[y] == 1 && c.Expr[z] == 1 && c.Op == linear.Ge && c.Const == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("substituted row y+z >= 3 missing:\n%s", res.Sys)
	}
}

func TestAuxiliaryMarksPreserved(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.MarkAuxiliary(y)
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 3)
	res := Run(s)
	if res.Decided {
		t.Fatalf("unexpectedly decided: %+v", res)
	}
	if res.Sys.Auxiliary(x) || !res.Sys.Auxiliary(y) {
		t.Errorf("auxiliary marks lost: x=%v y=%v", res.Sys.Auxiliary(x), res.Sys.Auxiliary(y))
	}
}

func TestEmptySystemDecided(t *testing.T) {
	res := Run(linear.NewSystem())
	if !res.Decided || !res.Feasible || len(res.Values) != 0 {
		t.Fatalf("empty system: %+v", res)
	}
}

func TestActivityInfeasible(t *testing.T) {
	// x ≤ 2, y ≤ 2, x + y ≥ 5: the best activity 4 misses the constant.
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddLe(linear.Term(x, 1), 2)
	s.AddLe(linear.Term(y, 1), 2)
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 5)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("activity bound not refuted: %+v", res)
	}
}

func TestRefutedCountsOnlyDischargedImplications(t *testing.T) {
	// A bound contradiction refutes the system while two implications were
	// never touched: they must not be reported as resolved.
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddGe(linear.Term(x, 1), 5)
	s.AddLe(linear.Term(x, 1), 3)
	s.AddImplication(y, z)
	s.AddImplication(z, y)
	res := Run(s)
	if !res.Decided || res.Feasible {
		t.Fatalf("bound contradiction not refuted: %+v", res)
	}
	if res.Stats.Implications != 2 || res.Stats.ImplicationsOut != 2 {
		t.Errorf("implication accounting on refuted exit = %d in / %d out, want 2/2 (nothing was resolved)",
			res.Stats.Implications, res.Stats.ImplicationsOut)
	}
}

func TestBailCountsNothingResolved(t *testing.T) {
	// The int64-overflow bail hands the raw input back: no rows, variables
	// or implications may be reported as eliminated.
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddGe(linear.Term(x, 1), 1<<62)
	s.AddGe(linear.Term(y, 1).Plus(x, -4), 0)
	s.AddGe(linear.Term(y, 1).Plus(z, 1), 5)
	s.AddImplication(y, z)
	res := Run(s)
	if res.Decided || !res.Stats.Bailed {
		t.Fatalf("expected overflow bail: %+v", res)
	}
	if res.Stats.ImplicationsOut != res.Stats.Implications || res.Stats.VarsFixed != 0 {
		t.Errorf("bail stats claim reductions that never shipped: %+v", res.Stats)
	}
}

// TestPresolveSoundAgainstBruteForce: randomized agreement — presolve must
// never flip a verdict against brute force over the capped box, and a
// reduced system must stay feasible when its input is.
func TestPresolveSoundAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
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
				if c := int64(rng.Intn(9) - 4); c != 0 {
					e.Plus(id, c)
				}
			}
			rhs := int64(rng.Intn(11) - 3)
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
			s.AddLe(linear.Term(id, 1), 4)
		}
		want := bruteForceBox(s, 4)
		res := Run(s)
		if res.Decided {
			if res.Feasible != want {
				t.Fatalf("trial %d: presolve=%v brute=%v\n%s", trial, res.Feasible, want, s)
			}
			if res.Feasible {
				if msg := s.EvalBig(res.Values); msg != "" {
					t.Fatalf("trial %d: witness invalid: %s\n%s", trial, msg, s)
				}
			}
			continue
		}
		// Reduced system: when the input has an integer point in the box,
		// the reduced system must keep one.
		got := bruteForceBox(res.Sys, 6)
		if want && !got {
			t.Fatalf("trial %d: reduced system lost a solution\n%s\nreduced:\n%s", trial, s, res.Sys)
		}
	}
}

// bruteForceBox enumerates integer assignments in [0,bound]^n.
func bruteForceBox(s *linear.System, bound int64) bool {
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
