// Package simplex is an exact rational linear-programming solver: a
// two-phase primal simplex with Bland's anti-cycling rule, run on a sparse
// int64 tableau (fast.go) and, when that overflows, on a dense
// math/big.Rat one. It decides feasibility of {x ≥ 0 : A·x (≤,=,≥) b}
// and minimizes a linear objective over that polyhedron. Exact arithmetic matters here:
// the solver is the oracle inside a decision procedure (the paper's
// reduction of XML constraint consistency to linear integer programming),
// where floating-point drift would produce wrong answers, not just
// imprecise ones.
package simplex

import (
	"fmt"
	"math/big"
)

// Rel is a row relation.
type Rel int

// Row relations.
const (
	Le Rel = iota // a·x ≤ b
	Eq            // a·x = b
	Ge            // a·x ≥ b
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal     Status = iota // feasible; X minimizes the objective
	Infeasible                // the polyhedron is empty
	Unbounded                 // the objective is unbounded below
	Interrupted               // the interrupt hook fired mid-solve
	Internal                  // the solver detected an inconsistent tableau (a solver bug, not a property of the input)
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Interrupted:
		return "interrupted"
	case Internal:
		return "internal error"
	}
	return "unknown"
}

// Problem is an LP over nonnegative structural variables x_0 … x_{n-1}.
type Problem struct {
	nvars     int
	rows      []sparseRow
	rels      []Rel
	rhs       []*big.Rat
	obj       map[int]*big.Rat // minimized; nil means pure feasibility
	interrupt func() bool
	exact     bool // skip the int64 fast kernel, pivot on big.Rat only
}

// SetExact forces the exact big.Rat kernel, skipping the int64 fast tableau
// entirely. It exists for ablation benchmarks and cross-validation; serving
// paths leave it off and rely on the fast kernel's automatic fallback.
func (p *Problem) SetExact(on bool) { p.exact = on }

// SetInterrupt installs a hook polled once per pivot; when it returns true
// the solve stops and reports Status Interrupted. Exact-rational pivots on
// large tableaus can take a long time, so this is the mechanism by which a
// context deadline reaches into the middle of an LP solve instead of
// waiting for it to finish.
func (p *Problem) SetInterrupt(f func() bool) { p.interrupt = f }

type sparseRow []struct {
	col int
	val *big.Rat
}

// New returns an empty problem over nvars nonnegative variables.
func New(nvars int) *Problem {
	return &Problem{nvars: nvars}
}

// AddRow appends the constraint Σ coeffs[j]·x_j rel rhs. Coefficient keys
// outside [0, nvars) panic.
func (p *Problem) AddRow(coeffs map[int]*big.Rat, rel Rel, rhs *big.Rat) {
	var row sparseRow
	for j, v := range coeffs {
		if j < 0 || j >= p.nvars {
			panic(fmt.Sprintf("simplex: column %d out of range [0,%d)", j, p.nvars))
		}
		if v.Sign() != 0 {
			row = append(row, struct {
				col int
				val *big.Rat
			}{j, new(big.Rat).Set(v)})
		}
	}
	p.rows = append(p.rows, row)
	p.rels = append(p.rels, rel)
	p.rhs = append(p.rhs, new(big.Rat).Set(rhs))
}

// AddRowInt appends a row with integer coefficients and right-hand side.
func (p *Problem) AddRowInt(coeffs map[int]int64, rel Rel, rhs int64) {
	m := make(map[int]*big.Rat, len(coeffs))
	for j, v := range coeffs {
		m[j] = new(big.Rat).SetInt64(v)
	}
	p.AddRow(m, rel, new(big.Rat).SetInt64(rhs))
}

// SetObjective sets the minimization objective Σ coeffs[j]·x_j.
func (p *Problem) SetObjective(coeffs map[int]*big.Rat) {
	p.obj = make(map[int]*big.Rat, len(coeffs))
	for j, v := range coeffs {
		p.obj[j] = new(big.Rat).Set(v)
	}
}

// Solution is the result of a solve. X is only meaningful when Status is
// Optimal; Obj is the objective value (0 for pure feasibility problems).
// Pivots counts pivot operations performed across both phases and both
// kernels — the unit of simplex work that solver-level statistics
// aggregate. FastPivots is the subset performed on the int64 fast tableau;
// ExactFallback reports that the fast kernel overflowed (or hit its
// magnitude cap) and the solve was redone on the exact big.Rat kernel, in
// which case Pivots includes both the wasted fast pivots and the exact
// rerun.
type Solution struct {
	Status        Status
	X             []*big.Rat
	Obj           *big.Rat
	Pivots        int
	FastPivots    int
	ExactFallback bool
}

// tableau is the dense simplex tableau in canonical form.
type tableau struct {
	m, ncols   int
	a          [][]*big.Rat // m rows × ncols
	rhs        []*big.Rat   // m
	basis      []int        // basic column of each row
	objRow     []*big.Rat   // reduced costs, ncols
	objVal     *big.Rat
	artStart   int // first artificial column; columns ≥ artStart are blocked in phase 2
	structural int // number of structural columns
	interrupt  func() bool
	pivots     int // pivot operations performed
}

// pivotOutcome is the result of a pivoting phase.
type pivotOutcome int

const (
	pivotOptimal pivotOutcome = iota
	pivotUnbounded
	pivotInterrupted
)

// Solve runs two-phase simplex and returns the solution. Unless SetExact
// forced the rational kernel, the int64 fast tableau (fast.go) is tried
// first; it pivots in machine words with the identical Bland's-rule
// sequence, and the exact kernel reruns the solve only when the fast one
// overflows or trips its magnitude cap.
func (p *Problem) Solve() *Solution {
	if p.exact {
		return p.solveExact()
	}
	sol, attempted, ok := p.solveFast()
	if ok {
		sol.FastPivots = attempted
		return sol
	}
	s := p.solveExact()
	s.ExactFallback = true
	s.FastPivots = attempted
	s.Pivots += attempted
	return s
}

// solveExact runs two-phase simplex on the big.Rat tableau.
func (p *Problem) solveExact() *Solution {
	t := p.buildTableau()
	t.interrupt = p.interrupt
	// Phase 1: minimize the sum of artificials.
	t.setPhase1Objective()
	return p.runPhases(t)
}

// runPhases pivots a tableau with phase-1 reduced costs already installed
// through both phases. It is the continuation of Solve, split out so tests
// can drive it with malformed tableaus directly.
func (p *Problem) runPhases(t *tableau) *Solution {
	switch t.pivotToOptimality(t.ncols) {
	case pivotInterrupted:
		return &Solution{Status: Interrupted, Pivots: t.pivots}
	case pivotUnbounded:
		// Phase 1 is always bounded below by 0 on a well-formed tableau, so
		// an unbounded report means the tableau is inconsistent. The solver
		// runs as the oracle inside serving processes; report Internal and
		// let callers turn it into an error instead of crashing the process.
		return &Solution{Status: Internal, Pivots: t.pivots}
	}
	if t.objVal.Sign() > 0 {
		return &Solution{Status: Infeasible, Pivots: t.pivots}
	}
	t.driveOutArtificials()

	// Phase 2: minimize the real objective over non-artificial columns.
	t.setObjective(p.obj)
	switch t.pivotToOptimality(t.artStart) {
	case pivotInterrupted:
		return &Solution{Status: Interrupted, Pivots: t.pivots}
	case pivotUnbounded:
		return &Solution{Status: Unbounded, Pivots: t.pivots}
	}
	x := make([]*big.Rat, p.nvars)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < p.nvars {
			x[b].Set(t.rhs[i])
		}
	}
	return &Solution{Status: Optimal, X: x, Obj: new(big.Rat).Set(t.objVal), Pivots: t.pivots}
}

func (p *Problem) buildTableau() *tableau {
	m := len(p.rows)
	// Normalize to b ≥ 0, flipping relations as needed.
	type normRow struct {
		row sparseRow
		rel Rel
		rhs *big.Rat
		neg bool
	}
	norm := make([]normRow, m)
	slackCount := 0
	artCount := 0
	for i := range p.rows {
		nr := normRow{row: p.rows[i], rel: p.rels[i], rhs: p.rhs[i]}
		if nr.rhs.Sign() < 0 {
			nr.neg = true
			switch nr.rel {
			case Le:
				nr.rel = Ge
			case Ge:
				nr.rel = Le
			}
		}
		if nr.rel != Eq {
			slackCount++
		}
		if nr.rel != Le {
			artCount++
		}
		norm[i] = nr
	}
	ncols := p.nvars + slackCount + artCount
	t := &tableau{
		m:          m,
		ncols:      ncols,
		structural: p.nvars,
		artStart:   p.nvars + slackCount,
		objVal:     new(big.Rat),
	}
	t.a = make([][]*big.Rat, m)
	t.rhs = make([]*big.Rat, m)
	t.basis = make([]int, m)
	for i := range t.a {
		t.a[i] = make([]*big.Rat, ncols)
		for j := range t.a[i] {
			t.a[i][j] = new(big.Rat)
		}
	}
	slack := p.nvars
	art := t.artStart
	for i, nr := range norm {
		for _, e := range nr.row {
			v := new(big.Rat).Set(e.val)
			if nr.neg {
				v.Neg(v)
			}
			t.a[i][e.col].Add(t.a[i][e.col], v) // Add: tolerate duplicate cols
		}
		t.rhs[i] = new(big.Rat).Set(nr.rhs)
		if nr.neg {
			t.rhs[i].Neg(t.rhs[i])
		}
		switch nr.rel {
		case Le:
			t.a[i][slack].SetInt64(1)
			t.basis[i] = slack
			slack++
		case Ge:
			t.a[i][slack].SetInt64(-1)
			slack++
			t.a[i][art].SetInt64(1)
			t.basis[i] = art
			art++
		case Eq:
			t.a[i][art].SetInt64(1)
			t.basis[i] = art
			art++
		}
	}
	t.objRow = make([]*big.Rat, ncols)
	for j := range t.objRow {
		t.objRow[j] = new(big.Rat)
	}
	return t
}

// setPhase1Objective installs reduced costs for minimizing the sum of
// artificial variables under the initial basis.
func (t *tableau) setPhase1Objective() {
	// c_j = 1 for artificial columns, 0 otherwise. For the initial basis,
	// reduced costs are c_j − Σ_{i: basis(i) artificial} a_ij and the
	// objective value is Σ_{i: basis(i) artificial} b_i.
	for j := 0; j < t.ncols; j++ {
		t.objRow[j].SetInt64(0)
		if j >= t.artStart {
			t.objRow[j].SetInt64(1)
		}
	}
	t.objVal.SetInt64(0)
	for i, b := range t.basis {
		if b >= t.artStart {
			for j := 0; j < t.ncols; j++ {
				t.objRow[j].Sub(t.objRow[j], t.a[i][j])
			}
			t.objVal.Add(t.objVal, t.rhs[i])
		}
	}
}

// setObjective installs reduced costs for minimizing Σ obj[j]·x_j under the
// current basis. A nil objective yields the zero objective (feasibility).
func (t *tableau) setObjective(obj map[int]*big.Rat) {
	c := make([]*big.Rat, t.ncols)
	for j := range c {
		c[j] = new(big.Rat)
	}
	for j, v := range obj {
		c[j].Set(v)
	}
	for j := 0; j < t.ncols; j++ {
		t.objRow[j].Set(c[j])
	}
	t.objVal.SetInt64(0)
	for i, b := range t.basis {
		if c[b].Sign() == 0 {
			continue
		}
		cb := new(big.Rat).Set(c[b])
		for j := 0; j < t.ncols; j++ {
			if t.a[i][j].Sign() != 0 {
				t.objRow[j].Sub(t.objRow[j], new(big.Rat).Mul(cb, t.a[i][j]))
			}
		}
		t.objVal.Add(t.objVal, new(big.Rat).Mul(cb, t.rhs[i]))
	}
	// Basic columns now have zero reduced cost up to rounding-free exactness.
}

// pivotToOptimality runs Bland's-rule pivots until no entering column with
// negative reduced cost exists among columns < colLimit, the objective is
// found unbounded below, or the interrupt hook fires.
func (t *tableau) pivotToOptimality(colLimit int) pivotOutcome {
	for {
		if t.interrupt != nil && t.interrupt() {
			return pivotInterrupted
		}
		// Entering: smallest column index with negative reduced cost.
		enter := -1
		for j := 0; j < colLimit; j++ {
			if t.objRow[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return pivotOptimal
		}
		// Leaving: min-ratio rows, tie broken by smallest basic index.
		leave := -1
		var best *big.Rat
		for i := 0; i < t.m; i++ {
			if t.a[i][enter].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(t.rhs[i], t.a[i][enter])
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave < 0 {
			return pivotUnbounded
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	t.pivots++
	piv := new(big.Rat).Set(t.a[leave][enter])
	inv := new(big.Rat).Inv(piv)
	for j := 0; j < t.ncols; j++ {
		if t.a[leave][j].Sign() != 0 {
			t.a[leave][j].Mul(t.a[leave][j], inv)
		}
	}
	t.rhs[leave].Mul(t.rhs[leave], inv)
	factor := new(big.Rat)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == leave || t.a[i][enter].Sign() == 0 {
			continue
		}
		factor.Set(t.a[i][enter])
		for j := 0; j < t.ncols; j++ {
			if t.a[leave][j].Sign() != 0 {
				tmp.Mul(factor, t.a[leave][j])
				t.a[i][j].Sub(t.a[i][j], tmp)
			}
		}
		tmp.Mul(factor, t.rhs[leave])
		t.rhs[i].Sub(t.rhs[i], tmp)
	}
	if t.objRow[enter].Sign() != 0 {
		factor.Set(t.objRow[enter])
		for j := 0; j < t.ncols; j++ {
			if t.a[leave][j].Sign() != 0 {
				tmp.Mul(factor, t.a[leave][j])
				t.objRow[j].Sub(t.objRow[j], tmp)
			}
		}
		// Entering at level b̄_r moves the objective by ĉ_e·b̄_r.
		tmp.Mul(factor, t.rhs[leave])
		t.objVal.Add(t.objVal, tmp)
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots zero-level artificial variables out of the
// basis where possible after phase 1. Rows whose artificial cannot be
// replaced are redundant; their artificial stays basic at level 0 and the
// artificial columns are excluded from phase 2 by the column limit.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if t.a[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}
