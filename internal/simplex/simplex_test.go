package simplex

import (
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

func rat(n, d int64) *big.Rat { return big.NewRat(n, d) }

// terms lists the nonzero coefficients of coeffs in column order.
func terms(coeffs map[int]*big.Rat) []Term {
	var out []Term
	for _, j := range slices.Sorted(maps.Keys(coeffs)) {
		if coeffs[j].Sign() != 0 {
			out = append(out, Term{j, coeffs[j]})
		}
	}
	return out
}

// intRow is the row Σ coeffs[j]·x_j rel rhs.
func intRow(coeffs map[int]int64, rel Rel, rhs int64) Row {
	m := make(map[int]*big.Rat, len(coeffs))
	for j, c := range coeffs {
		m[j] = rat(c, 1)
	}
	return Row{Terms: terms(m), Rel: rel, RHS: rat(rhs, 1)}
}

func TestFeasibleEquality(t *testing.T) {
	p := New(2, []Row{intRow(map[int]int64{0: 1, 1: 1}, Eq, 2)}, terms(map[int]*big.Rat{0: rat(1, 1), 1: rat(1, 1)}))
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Obj.Cmp(rat(2, 1)) != 0 {
		t.Errorf("objective = %s, want 2", sol.Obj)
	}
	sum := new(big.Rat).Add(sol.X[0], sol.X[1])
	if sum.Cmp(rat(2, 1)) != 0 {
		t.Errorf("x+y = %s, want 2", sum)
	}
}

func TestInfeasible(t *testing.T) {
	p := New(2, []Row{
		intRow(map[int]int64{0: 1, 1: 1}, Eq, 2),
		intRow(map[int]int64{0: 1, 1: 1}, Eq, 3),
	}, nil)
	if sol := p.Solve(); sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}

	q := New(1, []Row{intRow(map[int]int64{0: 1}, Le, -1)}, nil) // x ≤ −1 with x ≥ 0
	if sol := q.Solve(); sol.Status != Infeasible {
		t.Errorf("x ≤ −1: status = %v, want infeasible", sol.Status)
	}
}

func TestMinimization(t *testing.T) {
	// min x subject to x ≥ 3.
	p := New(1, []Row{intRow(map[int]int64{0: 1}, Ge, 3)}, terms(map[int]*big.Rat{0: rat(1, 1)}))
	sol := p.Solve()
	if sol.Status != Optimal || sol.X[0].Cmp(rat(3, 1)) != 0 {
		t.Errorf("min x s.t. x≥3: %v %v", sol.Status, sol.X)
	}

	// min 2x + 3y subject to x + y ≥ 4, x ≤ 1 → x=1, y=3, obj=11.
	q := New(2, []Row{
		intRow(map[int]int64{0: 1, 1: 1}, Ge, 4),
		intRow(map[int]int64{0: 1}, Le, 1),
	}, terms(map[int]*big.Rat{0: rat(2, 1), 1: rat(3, 1)}))
	sol = q.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Obj.Cmp(rat(11, 1)) != 0 {
		t.Errorf("objective = %s, want 11", sol.Obj)
	}
}

func TestUnbounded(t *testing.T) {
	// min −x with x free above.
	p := New(1, []Row{intRow(map[int]int64{0: 1}, Ge, 0)}, terms(map[int]*big.Rat{0: rat(-1, 1)}))
	if sol := p.Solve(); sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestFeasibilityOnlyNoObjective(t *testing.T) {
	p := New(2, []Row{intRow(map[int]int64{0: 2, 1: 1}, Eq, 4)}, nil)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	lhs := new(big.Rat).Add(new(big.Rat).Mul(rat(2, 1), sol.X[0]), sol.X[1])
	if lhs.Cmp(rat(4, 1)) != 0 {
		t.Errorf("2x+y = %s, want 4", lhs)
	}
}

func TestBealeCyclingExample(t *testing.T) {
	// Beale's classic cycling example; Bland's rule must terminate at the
	// optimum −1/20 (x = (1/25·… ) — specifically x1=1/25? the optimum is
	// attained at x = (0.04, 0, 1, 0)).
	p := New(4, []Row{
		{Terms: terms(map[int]*big.Rat{0: rat(1, 4), 1: rat(-60, 1), 2: rat(-1, 25), 3: rat(9, 1)}), Rel: Le, RHS: rat(0, 1)},
		{Terms: terms(map[int]*big.Rat{0: rat(1, 2), 1: rat(-90, 1), 2: rat(-1, 50), 3: rat(3, 1)}), Rel: Le, RHS: rat(0, 1)},
		{Terms: terms(map[int]*big.Rat{2: rat(1, 1)}), Rel: Le, RHS: rat(1, 1)},
	}, terms(map[int]*big.Rat{0: rat(-3, 4), 1: rat(150, 1), 2: rat(-1, 50), 3: rat(6, 1)}))
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Obj.Cmp(rat(-1, 20)) != 0 {
		t.Errorf("objective = %s, want -1/20", sol.Obj)
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicated equalities leave a redundant artificial basic at zero;
	// phase 2 must still succeed.
	p := New(2, []Row{
		intRow(map[int]int64{0: 1, 1: 1}, Eq, 2),
		intRow(map[int]int64{0: 1, 1: 1}, Eq, 2),
		intRow(map[int]int64{0: 2, 1: 2}, Eq, 4),
	}, terms(map[int]*big.Rat{0: rat(1, 1)}))
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.X[0].Sign() != 0 {
		t.Errorf("min x should be 0, got %s", sol.X[0])
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// −x ≤ −2 is x ≥ 2.
	p := New(1, []Row{intRow(map[int]int64{0: -1}, Le, -2)}, terms(map[int]*big.Rat{0: rat(1, 1)}))
	sol := p.Solve()
	if sol.Status != Optimal || sol.X[0].Cmp(rat(2, 1)) != 0 {
		t.Errorf("x = %v (status %v), want 2", sol.X, sol.Status)
	}
	// −x ≥ −2 is x ≤ 2; minimize −x… bounded: max x = 2.
	q := New(1, []Row{intRow(map[int]int64{0: -1}, Ge, -2)}, terms(map[int]*big.Rat{0: rat(-1, 1)}))
	sol = q.Solve()
	if sol.Status != Optimal || sol.X[0].Cmp(rat(2, 1)) != 0 {
		t.Errorf("max x s.t. x ≤ 2: got %v (status %v)", sol.X, sol.Status)
	}
}

// TestRandomFeasiblePoint generates systems guaranteed feasible by
// construction and checks that the solver finds a point satisfying every
// row exactly.
func TestRandomFeasiblePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		point := make([]int64, n)
		for i := range point {
			point[i] = int64(rng.Intn(5))
		}
		var rows []Row
		for r := 1 + rng.Intn(5); r > 0; r-- {
			coeffs := make(map[int]int64)
			var lhs int64
			for i := 0; i < n; i++ {
				c := int64(rng.Intn(7) - 3)
				if c != 0 {
					coeffs[i] = c
					lhs += c * point[i]
				}
			}
			switch rng.Intn(3) {
			case 0:
				rows = append(rows, intRow(coeffs, Eq, lhs))
			case 1:
				rows = append(rows, intRow(coeffs, Le, lhs+int64(rng.Intn(3))))
			default:
				rows = append(rows, intRow(coeffs, Ge, lhs-int64(rng.Intn(3))))
			}
		}
		sol := New(n, rows, nil).Solve()
		if sol.Status != Optimal {
			t.Fatalf("trial %d: constructed-feasible system reported %v", trial, sol.Status)
		}
	}
}

// TestRandomSolutionSatisfiesRows re-solves random systems with objectives
// and verifies returned points satisfy every row.
func TestRandomSolutionSatisfiesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(4)
		var rows []Row
		type savedRow struct {
			coeffs map[int]int64
			rel    Rel
			rhs    int64
		}
		var saved []savedRow
		for r := 1 + rng.Intn(4); r > 0; r-- {
			coeffs := make(map[int]int64)
			for i := 0; i < n; i++ {
				if c := int64(rng.Intn(5) - 2); c != 0 {
					coeffs[i] = c
				}
			}
			rel := Rel(rng.Intn(3))
			rhs := int64(rng.Intn(7) - 1)
			if rel == Le && rhs < 0 {
				rhs = -rhs // keep a decent share feasible
			}
			rows = append(rows, intRow(coeffs, rel, rhs))
			saved = append(saved, savedRow{coeffs, rel, rhs})
		}
		obj := make(map[int]*big.Rat)
		for i := 0; i < n; i++ {
			obj[i] = rat(1, 1)
		}
		sol := New(n, rows, terms(obj)).Solve()
		if sol.Status != Optimal {
			continue
		}
		for _, r := range saved {
			lhs := new(big.Rat)
			for i, c := range r.coeffs {
				lhs.Add(lhs, new(big.Rat).Mul(rat(c, 1), sol.X[i]))
			}
			rhs := rat(r.rhs, 1)
			ok := false
			switch r.rel {
			case Eq:
				ok = lhs.Cmp(rhs) == 0
			case Le:
				ok = lhs.Cmp(rhs) <= 0
			case Ge:
				ok = lhs.Cmp(rhs) >= 0
			}
			if !ok {
				t.Fatalf("trial %d: solution violates row %v", trial, r)
			}
		}
		for i := 0; i < n; i++ {
			if sol.X[i].Sign() < 0 {
				t.Fatalf("trial %d: negative component %s", trial, sol.X[i])
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() == "" || Infeasible.String() == "" || Unbounded.String() == "" {
		t.Error("Status strings must be non-empty")
	}
}

// TestNewRejectsMalformedRows pins New's input contract: rows and the
// objective list nonzero coefficients in strictly ascending column order,
// within range.
func TestNewRejectsMalformedRows(t *testing.T) {
	for name, row := range map[string][]Term{
		"out of range": {{2, rat(1, 1)}},
		"negative":     {{-1, rat(1, 1)}},
		"descending":   {{1, rat(1, 1)}, {0, rat(1, 1)}},
		"duplicate":    {{0, rat(1, 1)}, {0, rat(2, 1)}},
		"zero":         {{0, rat(0, 1)}},
	} {
		for _, asObj := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (objective %v): New accepted %v", name, asObj, row)
					}
				}()
				if asObj {
					New(2, nil, row)
				} else {
					New(2, []Row{{Terms: row, Rel: Le, RHS: rat(1, 1)}}, nil)
				}
			}()
		}
	}
}

// malformedTableau builds, on number type T, a tableau whose phase-1
// state is inconsistent: the reduced-cost row claims column 0 improves the
// objective, but no row has a positive entry in that column, so pivoting
// reports unbounded although phase 1 is bounded below by 0 on any
// well-formed tableau. It is the state a solver bug would have to produce.
func malformedTableau[T any, A arith[T]](ar A) *tableau[T, A] {
	zero, one, minusOne := ar.fromInt(0), ar.fromInt(1), ar.fromInt(-1)
	return &tableau[T, A]{
		ar:       ar,
		m:        1,
		ncols:    2,
		artStart: 1,
		rows:     [][]entry[T]{{{0, minusOne}, {1, one}}},
		rhs:      []T{one},
		basis:    []int{1},
		objRow:   []T{minusOne, zero},
		objVal:   zero,
		col:      make([]entry[T], 1),
	}
}

// TestMalformedTableauReturnsInternal is the regression test for the
// phase-1 crash path: Solve once panicked with "simplex: phase 1
// unbounded" on exactly this pivot outcome, which would have taken down a
// serving process. The rat64 instance must hand the solve to big.Rat, and
// big.Rat must report the Internal status; neither may panic.
func TestMalformedTableauReturnsInternal(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("runPhases panicked on a malformed tableau: %v", r)
		}
	}()
	if sol, ok := malformedTableau[rat64](new(fastArith)).runPhases(1, nil); ok {
		t.Fatalf("rat64 kept the solve (status %v); it must hand it to big.Rat", sol.Status)
	}
	sol, _ := malformedTableau[*big.Rat](bigArith{}).runPhases(1, nil)
	if sol.Status != Internal {
		t.Fatalf("big.Rat status = %v, want %v", sol.Status, Internal)
	}
	if got := sol.Status.String(); got != "internal error" {
		t.Fatalf("Status.String() = %q", got)
	}
}
