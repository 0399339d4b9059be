package simplex

import "math/big"

// denseTableau is the reference the kernel is tested against: the same
// two-phase Bland's-rule simplex on a dense m×ncols big.Rat tableau,
// written without the kernel's sparse rows, number-type dispatch or
// overflow handling.
type denseTableau struct {
	m, ncols int
	a        [][]*big.Rat // m rows × ncols
	rhs      []*big.Rat   // m
	basis    []int        // basic column of each row
	objRow   []*big.Rat   // reduced costs, ncols
	objVal   *big.Rat
	artStart int // first artificial column; columns ≥ artStart are blocked in phase 2
	pivots   int // pivot operations performed
}

// denseSolve solves p on the dense tableau.
func denseSolve(p *Problem) *Solution {
	t := buildDense(p)
	t.setPhase1Objective()
	if !t.pivotToOptimality(t.ncols) {
		return &Solution{Status: Internal, Pivots: t.pivots}
	}
	if t.objVal.Sign() > 0 {
		return &Solution{Status: Infeasible, Pivots: t.pivots}
	}
	t.driveOutArtificials()
	t.setObjective(p.obj)
	if !t.pivotToOptimality(t.artStart) {
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

func buildDense(p *Problem) *denseTableau {
	m := len(p.rows)
	rels := make([]Rel, m)
	slackCount, artCount := 0, 0
	for i, r := range p.rows {
		rels[i] = r.Rel
		if r.RHS.Sign() < 0 {
			switch r.Rel {
			case Le:
				rels[i] = Ge
			case Ge:
				rels[i] = Le
			}
		}
		if rels[i] != Eq {
			slackCount++
		}
		if rels[i] != Le {
			artCount++
		}
	}
	ncols := p.nvars + slackCount + artCount
	t := &denseTableau{
		m:        m,
		ncols:    ncols,
		artStart: p.nvars + slackCount,
		objVal:   new(big.Rat),
		a:        make([][]*big.Rat, m),
		rhs:      make([]*big.Rat, m),
		basis:    make([]int, m),
		objRow:   make([]*big.Rat, ncols),
	}
	for i := range t.a {
		t.a[i] = make([]*big.Rat, ncols)
		for j := range t.a[i] {
			t.a[i][j] = new(big.Rat)
		}
	}
	for j := range t.objRow {
		t.objRow[j] = new(big.Rat)
	}
	slack, art := p.nvars, t.artStart
	for i, r := range p.rows {
		neg := r.RHS.Sign() < 0
		for _, e := range r.Terms {
			t.a[i][e.Col].Set(e.Coef)
			if neg {
				t.a[i][e.Col].Neg(t.a[i][e.Col])
			}
		}
		t.rhs[i] = new(big.Rat).Abs(r.RHS)
		switch rels[i] {
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
	return t
}

// setPhase1Objective installs reduced costs for minimizing the sum of
// artificial variables under the initial basis.
func (t *denseTableau) setPhase1Objective() {
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

// setObjective installs reduced costs for minimizing Σ obj·x under the
// current basis.
func (t *denseTableau) setObjective(obj []Term) {
	c := make([]*big.Rat, t.ncols)
	for j := range c {
		c[j] = new(big.Rat)
	}
	for _, e := range obj {
		c[e.Col].Set(e.Coef)
	}
	for j := 0; j < t.ncols; j++ {
		t.objRow[j].Set(c[j])
	}
	t.objVal.SetInt64(0)
	for i, b := range t.basis {
		if c[b].Sign() == 0 {
			continue
		}
		for j := 0; j < t.ncols; j++ {
			t.objRow[j].Sub(t.objRow[j], new(big.Rat).Mul(c[b], t.a[i][j]))
		}
		t.objVal.Add(t.objVal, new(big.Rat).Mul(c[b], t.rhs[i]))
	}
}

// pivotToOptimality runs Bland's-rule pivots until no column below
// colLimit has a negative reduced cost; false means unbounded.
func (t *denseTableau) pivotToOptimality(colLimit int) bool {
	for {
		enter := -1
		for j := 0; j < colLimit; j++ {
			if t.objRow[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
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
			return false
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave.
func (t *denseTableau) pivot(leave, enter int) {
	t.pivots++
	inv := new(big.Rat).Inv(t.a[leave][enter])
	for j := 0; j < t.ncols; j++ {
		t.a[leave][j].Mul(t.a[leave][j], inv)
	}
	t.rhs[leave].Mul(t.rhs[leave], inv)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == leave || t.a[i][enter].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Set(t.a[i][enter])
		for j := 0; j < t.ncols; j++ {
			t.a[i][j].Sub(t.a[i][j], tmp.Mul(factor, t.a[leave][j]))
		}
		t.rhs[i].Sub(t.rhs[i], tmp.Mul(factor, t.rhs[leave]))
	}
	if t.objRow[enter].Sign() != 0 {
		factor := new(big.Rat).Set(t.objRow[enter])
		for j := 0; j < t.ncols; j++ {
			t.objRow[j].Sub(t.objRow[j], tmp.Mul(factor, t.a[leave][j]))
		}
		t.objVal.Add(t.objVal, tmp.Mul(factor, t.rhs[leave]))
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots zero-level artificial variables out of the
// basis where possible after phase 1.
func (t *denseTableau) driveOutArtificials() {
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
