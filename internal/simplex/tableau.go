// The pivot kernel: a sparse two-phase Bland's-rule tableau, generic over
// its number type. Each constraint row keeps only its nonzeros, in column
// order, and a pivot touches only the rows with a nonzero in the entering
// column. Cardinality encodings are a few percent dense even after their
// last pivot, so the work and the memory follow the nonzeros, not
// m×ncols.
package simplex

import "math/big"

// arith is the arithmetic the kernel runs on: T is the number type and
// A's methods compute on it. fastArith (rat64) records overflow in a sticky
// flag; bigArith (*big.Rat) never overflows. No method writes an operand,
// so the kernel copies T values freely.
type arith[T any] interface {
	fromRat(v *big.Rat) T
	fromInt(v int64) T
	setRat(dst *big.Rat, v T)
	sign(a T) int
	neg(a T) T
	inv(a T) T
	add(a, b T) T
	sub(a, b T) T
	mul(a, b T) T
	// mulSub returns a − f·b, negMul −(f·b) and quo a/b: one call, and on
	// big.Rat one fresh value, where the pivot needs two operations.
	mulSub(a, f, b T) T
	negMul(f, b T) T
	quo(a, b T) T
	cmp(a, b T) int
	// firstNegative returns the first index of row holding a negative
	// value, or -1. It is one call per scan rather than one per column,
	// since the kernel reaches A's methods through a dictionary.
	firstNegative(row []T) int
	// overflowed reports that an operation left the number type's range;
	// every value computed since is meaningless.
	overflowed() bool
}

// entry is one nonzero of a sparse vector: in a tableau row idx is the
// column, in the gathered entering column it is the row.
type entry[T any] struct {
	idx int
	val T
}

// tableau is the simplex tableau in canonical form. The constraint rows
// hold their nonzeros in ascending column order and never store a zero;
// the objective row stays dense because entering-column selection scans
// it in full.
type tableau[T any, A arith[T]] struct {
	ar        A
	m, ncols  int
	rows      [][]entry[T]
	rhs       []T
	basis     []int // basic column of each row
	objRow    []T   // reduced costs, ncols
	objVal    T
	artStart  int // first artificial column; columns ≥ artStart are blocked in phase 2
	interrupt func() bool
	pivots    int // pivot operations performed

	// col is the entering column's nonzeros, gathered once per pivot and
	// shared by the ratio test and the elimination; capacity m, never grows.
	col []entry[T]
	// merge is the scratch row an elimination is written into before it
	// is copied back; it grows with fill-in (growMerge).
	merge []entry[T]
}

// pivotOutcome is the result of a pivoting phase.
type pivotOutcome int

const (
	pivotOptimal pivotOutcome = iota
	pivotUnbounded
	pivotInterrupted
	pivotOverflow // the number type overflowed; the tableau is meaningless
)

// solveWith runs the whole two-phase solve of p on number type T. It
// returns false when the solve should be handed to big.Rat: T overflowed,
// or the tableau turned out inconsistent. Pivots then counts the pivots
// spent before that.
func solveWith[T any, A arith[T]](p *Problem, ar A) (*Solution, bool) {
	t := newTableau[T](p, ar)
	t.interrupt = p.interrupt
	t.setPhase1Objective()
	return t.runPhases(p.nvars, p.obj)
}

// newTableau builds p's tableau in canonical form: each row normalized to
// b ≥ 0, with a slack column for each inequality and an artificial column,
// basic in phase 1, for each ≥ or = row. A coefficient T cannot represent
// sets the overflow flag.
func newTableau[T any, A arith[T]](p *Problem, ar A) *tableau[T, A] {
	m := len(p.rows)
	nnz, slackCount, artCount := 0, 0, 0
	rels := make([]Rel, m)
	for i, r := range p.rows {
		rel := r.Rel
		if r.RHS.Sign() < 0 {
			switch rel {
			case Le:
				rel = Ge
			case Ge:
				rel = Le
			}
		}
		if rel != Eq {
			slackCount++
		}
		if rel != Le {
			artCount++
		}
		rels[i] = rel
		nnz += len(r.Terms)
	}
	ncols := p.nvars + slackCount + artCount
	t := &tableau[T, A]{
		ar:       ar,
		m:        m,
		ncols:    ncols,
		artStart: p.nvars + slackCount,
		rows:     make([][]entry[T], m),
		rhs:      make([]T, m),
		basis:    make([]int, m),
		objRow:   make([]T, ncols),
		col:      make([]entry[T], m),
	}
	one, minusOne := ar.fromInt(1), ar.fromInt(-1)
	// One slab holds every row as built; a row that fills in past its
	// share moves to its own buffer (growRow).
	slab := make([]entry[T], 0, nnz+slackCount+artCount)
	slack := p.nvars
	art := t.artStart
	for i, r := range p.rows {
		neg := r.RHS.Sign() < 0
		start := len(slab)
		for _, e := range r.Terms {
			v := ar.fromRat(e.Coef)
			if neg {
				v = ar.neg(v)
			}
			slab = append(slab, entry[T]{e.Col, v})
		}
		t.rhs[i] = ar.fromRat(r.RHS)
		if neg {
			t.rhs[i] = ar.neg(t.rhs[i])
		}
		// Slack and artificial columns sit past every structural one, so
		// appending them keeps the row in column order.
		switch rels[i] {
		case Le:
			slab = append(slab, entry[T]{slack, one})
			t.basis[i] = slack
			slack++
		case Ge:
			slab = append(slab, entry[T]{slack, minusOne}, entry[T]{art, one})
			t.basis[i] = art
			slack++
			art++
		case Eq:
			slab = append(slab, entry[T]{art, one})
			t.basis[i] = art
			art++
		}
		t.rows[i] = slab[start:len(slab):len(slab)]
	}
	return t
}

// runPhases pivots a tableau whose phase-1 reduced costs are installed
// through both phases, and reads the vertex off the final tableau.
func (t *tableau[T, A]) runPhases(nvars int, obj []Term) (*Solution, bool) {
	if t.ar.overflowed() {
		return &Solution{Pivots: t.pivots}, false
	}
	switch t.pivotToOptimality(t.ncols) {
	case pivotOverflow:
		return &Solution{Pivots: t.pivots}, false
	case pivotInterrupted:
		return &Solution{Status: Interrupted, Pivots: t.pivots}, true
	case pivotUnbounded:
		// Phase 1 is always bounded below by 0 on a well-formed tableau,
		// so an unbounded report means the tableau is inconsistent: a
		// solver bug, which rat64 hands to big.Rat and big.Rat reports as
		// Internal, for callers to turn into an error instead of crashing
		// a serving process.
		return &Solution{Status: Internal, Pivots: t.pivots}, false
	}
	if t.ar.sign(t.objVal) > 0 {
		return &Solution{Status: Infeasible, Pivots: t.pivots}, true
	}
	t.driveOutArtificials()
	t.setObjective(obj)
	if t.ar.overflowed() {
		return &Solution{Pivots: t.pivots}, false
	}
	// Phase 2: minimize the real objective over non-artificial columns.
	switch t.pivotToOptimality(t.artStart) {
	case pivotOverflow:
		return &Solution{Pivots: t.pivots}, false
	case pivotInterrupted:
		return &Solution{Status: Interrupted, Pivots: t.pivots}, true
	case pivotUnbounded:
		return &Solution{Status: Unbounded, Pivots: t.pivots}, true
	}
	x := make([]*big.Rat, nvars)
	vals := make([]big.Rat, nvars)
	for j := range x {
		x[j] = &vals[j]
	}
	for i, b := range t.basis {
		if b < nvars {
			t.ar.setRat(x[b], t.rhs[i])
		}
	}
	objVal := new(big.Rat)
	t.ar.setRat(objVal, t.objVal)
	return &Solution{Status: Optimal, X: x, Obj: objVal, Pivots: t.pivots}, true
}

// setPhase1Objective installs reduced costs for minimizing the sum of
// artificial variables under the initial basis: c_j = 1 for artificial
// columns and 0 otherwise, so the reduced costs are
// c_j − Σ_{i: basis(i) artificial} a_ij and the objective value is
// Σ_{i: basis(i) artificial} b_i.
//
//xic:hotpath
func (t *tableau[T, A]) setPhase1Objective() {
	zero, one := t.ar.fromInt(0), t.ar.fromInt(1)
	for j := range t.objRow {
		t.objRow[j] = zero
		if j >= t.artStart {
			t.objRow[j] = one
		}
	}
	t.objVal = zero
	for i, b := range t.basis {
		if b >= t.artStart {
			for _, e := range t.rows[i] {
				t.objRow[e.idx] = t.ar.sub(t.objRow[e.idx], e.val)
			}
			t.objVal = t.ar.add(t.objVal, t.rhs[i])
		}
	}
}

// setObjective installs reduced costs for minimizing Σ obj·x under the
// current basis. A nil objective yields the zero objective (feasibility).
func (t *tableau[T, A]) setObjective(obj []Term) {
	zero := t.ar.fromInt(0)
	c := make([]T, t.ncols)
	for j := range c {
		c[j] = zero
	}
	for _, e := range obj {
		c[e.Col] = t.ar.fromRat(e.Coef)
	}
	copy(t.objRow, c)
	t.objVal = zero
	for i, b := range t.basis {
		cb := c[b]
		if t.ar.sign(cb) == 0 {
			continue
		}
		for _, e := range t.rows[i] {
			t.objRow[e.idx] = t.ar.mulSub(t.objRow[e.idx], cb, e.val)
		}
		t.objVal = t.ar.add(t.objVal, t.ar.mul(cb, t.rhs[i]))
	}
}

// find returns the position of column j in a row, or -1.
//
//xic:hotpath
func find[T any](row []entry[T], j int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if row[h].idx < j {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < len(row) && row[lo].idx == j {
		return lo
	}
	return -1
}

// gather collects column j's nonzeros into t.col, in row order.
//
//xic:hotpath
func (t *tableau[T, A]) gather(j int) {
	col := t.col[:cap(t.col)]
	n := 0
	for i, row := range t.rows {
		if k := find(row, j); k >= 0 {
			col[n] = entry[T]{i, row[k].val}
			n++
		}
	}
	t.col = col[:n]
}

// pivotToOptimality runs Bland's-rule pivots until no entering column with
// negative reduced cost exists among columns < colLimit, the objective is
// found unbounded below, the interrupt hook fires or T overflows. The
// entering column is the smallest such index; the leaving row is a
// min-ratio row, ties broken by the smallest basic column. The overflow
// flag is read after the ratio test, before the pivot is charged, and
// after each pivot.
//
//xic:hotpath
func (t *tableau[T, A]) pivotToOptimality(colLimit int) pivotOutcome {
	for {
		if t.interrupt != nil && t.interrupt() {
			return pivotInterrupted
		}
		enter := t.ar.firstNegative(t.objRow[:colLimit])
		if enter < 0 {
			return pivotOptimal
		}
		t.gather(enter)
		leave := -1
		var best, piv T
		for _, e := range t.col {
			if t.ar.sign(e.val) <= 0 {
				continue
			}
			ratio := t.ar.quo(t.rhs[e.idx], e.val)
			if leave < 0 {
				leave, best, piv = e.idx, ratio, e.val
				continue
			}
			if c := t.ar.cmp(ratio, best); c < 0 || (c == 0 && t.basis[e.idx] < t.basis[leave]) {
				leave, best, piv = e.idx, ratio, e.val
			}
		}
		if t.ar.overflowed() {
			return pivotOverflow
		}
		if leave < 0 {
			return pivotUnbounded
		}
		t.pivot(leave, enter, piv)
		if t.ar.overflowed() {
			return pivotOverflow
		}
	}
}

// pivot makes column enter basic in row leave, whose entry there is piv.
// t.col must hold column enter, as gathered by gather.
//
//xic:hotpath
func (t *tableau[T, A]) pivot(leave, enter int, piv T) {
	t.pivots++
	prow := t.rows[leave]
	inv := t.ar.inv(piv)
	for k := range prow {
		prow[k].val = t.ar.mul(prow[k].val, inv)
	}
	t.rhs[leave] = t.ar.mul(t.rhs[leave], inv)
	for _, e := range t.col {
		i := e.idx
		if i == leave {
			continue
		}
		t.eliminate(i, e.val, prow)
		t.rhs[i] = t.ar.mulSub(t.rhs[i], e.val, t.rhs[leave])
	}
	if factor := t.objRow[enter]; t.ar.sign(factor) != 0 {
		for _, e := range prow {
			t.objRow[e.idx] = t.ar.mulSub(t.objRow[e.idx], factor, e.val)
		}
		// Entering at level b̄_r moves the objective by ĉ_e·b̄_r.
		t.objVal = t.ar.add(t.objVal, t.ar.mul(factor, t.rhs[leave]))
	}
	t.basis[leave] = enter
}

// eliminate sets row i to row i − factor·prow by merging the two
// column-ordered nonzero lists, dropping entries that cancel to exactly
// zero (the entering column always does).
//
//xic:hotpath
func (t *tableau[T, A]) eliminate(i int, factor T, prow []entry[T]) {
	row := t.rows[i]
	if need := len(row) + len(prow); need > cap(t.merge) {
		t.growMerge(need) //xic:ignore hotalloc amortized growth: the scratch row warms to the widest elimination and is reused
	}
	out := t.merge
	n, a, b := 0, 0, 0
	for a < len(row) && b < len(prow) {
		switch {
		case row[a].idx < prow[b].idx:
			out[n] = row[a]
			n++
			a++
		case row[a].idx > prow[b].idx:
			out[n] = entry[T]{prow[b].idx, t.ar.negMul(factor, prow[b].val)}
			n++
			b++
		default:
			if v := t.ar.mulSub(row[a].val, factor, prow[b].val); t.ar.sign(v) != 0 {
				out[n] = entry[T]{row[a].idx, v}
				n++
			}
			a++
			b++
		}
	}
	n += copy(out[n:], row[a:])
	for ; b < len(prow); b++ {
		out[n] = entry[T]{prow[b].idx, t.ar.negMul(factor, prow[b].val)}
		n++
	}
	if n > cap(row) {
		row = t.growRow(i, n) //xic:ignore hotalloc amortized growth: a row's buffer grows only with its own fill-in
	}
	t.rows[i] = row[:n]
	copy(t.rows[i], out[:n])
}

func (t *tableau[T, A]) growMerge(need int) {
	t.merge = make([]entry[T], max(2*cap(t.merge), need))
}

// growRow gives row i a buffer for at least n entries; the caller
// overwrites it whole, so nothing is copied.
func (t *tableau[T, A]) growRow(i, n int) []entry[T] {
	return make([]entry[T], 0, max(2*cap(t.rows[i]), n))
}

// driveOutArtificials pivots zero-level artificial variables out of the
// basis where possible after phase 1. A row's first nonzero is its
// smallest column, so a basic artificial can be pivoted out exactly when
// that column is below artStart. Rows whose artificial cannot be replaced
// are redundant; their artificial stays basic at level 0 and the
// artificial columns are excluded from phase 2 by the column limit.
//
//xic:hotpath
func (t *tableau[T, A]) driveOutArtificials() {
	for i := 0; i < t.m && !t.ar.overflowed(); i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		if row := t.rows[i]; len(row) > 0 && row[0].idx < t.artStart {
			t.gather(row[0].idx)
			t.pivot(i, row[0].idx, row[0].val)
		}
	}
}
