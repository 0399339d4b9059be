// Package presolve shrinks — and often outright decides — the linear
// integer systems produced by the cardinality encodings before the
// branch-and-bound ILP search runs. Consistency of keys and foreign keys
// under a DTD is NP-complete in general (Theorem 4.7), but the systems
// real specifications compile to are dominated by structure a solver never
// needs to branch on: a unit equality pinning the root extent, chains of
// two-variable equalities tying extents to occurrence counts, conditional
// constraints whose antecedent is already forced. Presolve applies the
// classic MIP reductions, each sound for nonnegative integer variables:
//
//   - row normalization and GCD tightening: every row is divided by the
//     gcd of its coefficients; an equality row whose gcd does not divide
//     its constant is Diophantine-infeasible, and inequality constants
//     round to the integer hull (⌈b/g⌉);
//   - singleton absorption: one-variable rows become variable bounds (a
//     one-variable equality fixes its variable or refutes the system);
//   - bound propagation: row activity bounds imply per-variable bounds,
//     iterated to a fixpoint with integer rounding at every step;
//   - variable fixing: a variable whose bounds meet is substituted out of
//     every row, and rows emptied by substitution are checked and dropped;
//   - implication resolution over the conditional constraints x>0 → y>0
//     (the Ψ_X case splits of Theorem 4.1): a forced-positive antecedent
//     turns the conditional into y ≥ 1; a forced-zero consequent forces
//     the antecedent to zero, propagated backwards through the implication
//     graph to its transitive closure;
//   - duplicate and dominated row elimination: syntactically equal rows
//     merge, opposite inequalities over the same expression merge into an
//     equality when their constants meet, and contradictions refute.
//
// Every deduction is forced: any solution of the input satisfies the
// tightened bounds and fixed values. The reductions therefore preserve
// feasibility exactly in both directions — the reduced system plus the
// fixed values is feasible iff the input is, and any solution of the
// reduced system extends to a solution of the input via the fixed values.
// When nothing but consistent bounds remains, presolve decides feasibility
// with no LP solve at all (the least point x = lo is a witness).
//
// All arithmetic is on int64 and checked: rows are sorted (variable,
// coefficient) terms, and every sum, difference, product, negation and
// quotient reports overflow. The encodings' numbers are content-model
// multiplicities and ±1, so overflow takes a pathological input; when it
// happens presolve stops and hands the input to the solver unreduced
// (Stats.Bailed), which decides it exactly.
package presolve

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/big"
	"slices"

	"xic/internal/linear"
)

// maxRounds caps the bound-tightening fixpoint loop. Mutually-reinforcing
// rows — {x − y ≥ 1, y − x ≥ 1}, or the cardinality cycle behind the
// paper's Σ1 inconsistency — push lower bounds upward forever without
// converging; on a feasible system propagation converges (every sound
// bound is capped by a solution), so a spiral indicates infeasibility that
// interval reasoning alone cannot conclude. Past the cap the loop stops
// propagating and stabilizes the remaining rules (substitution,
// implication resolution, fixing), which always reach a fixpoint, so the
// deductions made so far are kept — they are all sound — and the solver
// settles the rest. Real encodings converge in a handful of rounds.
const maxRounds = 24

// Stats reports what presolve did to one system.
type Stats struct {
	Rows            int  // constraint rows in the input
	RowsOut         int  // rows in the reduced system (bounds included)
	Vars            int  // variables in the input
	VarsFixed       int  // variables fixed to a single value
	Implications    int  // conditional constraints in the input
	ImplicationsOut int  // conditional constraints left after resolution
	Tightened       int  // inequality constants moved by GCD rounding
	Cuts            int  // always 0 (no cutting planes); kept while the benchmark's decide trace reads it and TestReducedSystemsPinned hashes Stats by field
	Rounds          int  // propagation sweeps until fixpoint (or cap)
	Bailed          bool // a value left int64, or the least point failed the input with a variable free; input returned unreduced
}

// Result is the outcome of a presolve pass. Exactly one of two shapes:
// Decided answers feasibility outright (with a complete witness assignment
// in Values when feasible); otherwise Sys is the reduced system over the
// same variable indexing as the input and Fixed holds the values of
// substituted-out variables (nil entries are free), to be merged into any
// solution of Sys.
type Result struct {
	Decided  bool
	Feasible bool
	Values   []*big.Int

	Sys   *linear.System
	Fixed []*big.Int

	Stats Stats
}

// term is one coefficient of a row: a·x_j.
type term struct {
	j int
	a int64
}

// row is a canonicalized constraint: Σ a·x = rhs (eq) or ≥ rhs, its terms
// in ascending variable order. ≤-rows enter negated. Coefficients are
// never zero and never reference a fixed variable.
type row struct {
	terms []term
	eq    bool
	rhs   int64
}

type state struct {
	sys   *linear.System
	n     int
	rows  []row
	imps  []linear.Implication
	lo    []int64 // lower bounds; start at 0 (all variables nonnegative)
	hi    []int64 // upper bounds where hasHi is set
	hasHi []bool  // false: no upper bound
	fixed []bool

	// The antecedents x of the input implications x>0 → y>0, grouped by
	// consequent: revIf[revStart[y]:revStart[y+1]], in input order.
	revStart []int
	revIf    []int
	stack    []int // resolveImplications' worklist, capacity n

	infeasible bool
	// overflow is sticky: once an operation leaves int64, the values
	// computed since are meaningless and Run returns bail(), whatever
	// else the state says.
	overflow bool
	changed  bool
	stats    Stats
}

// Run presolves the system. The input is never mutated.
func Run(sys *linear.System) *Result {
	n := sys.VarCount()
	cons := sys.Constraints()
	st := &state{
		sys:   sys,
		n:     n,
		rows:  make([]row, 0, len(cons)),
		lo:    make([]int64, n),
		hi:    make([]int64, n),
		hasHi: make([]bool, n),
		fixed: make([]bool, n),
	}
	width := 0
	for _, con := range cons {
		width += len(con.Expr)
	}
	slab := make([]term, 0, width)
	for _, con := range cons {
		slab = st.addConstraint(con, slab)
	}
	st.imps = append([]linear.Implication(nil), sys.Implications()...)
	st.indexImplications()
	st.stats.Rows = len(cons)
	st.stats.Vars = n
	st.stats.Implications = len(st.imps)
	if st.overflow {
		return st.bail()
	}

	st.runFixpoint()
	// Past the cap, stop the (possibly divergent) bound propagation and
	// stabilize the remaining monotone rules: substitution consumes
	// coefficients, implications and rows only shrink, and fixes only grow,
	// so this loop always reaches a fixpoint. The emit invariants (fixed
	// variables substituted out of every row, no implication touching a
	// decided endpoint) need a fixpoint of exactly these rules.
	for !st.halted() && st.changed {
		st.stats.Rounds++
		st.changed = false
		st.normalizeRows()
		if !st.halted() {
			st.resolveImplications()
		}
		if !st.halted() {
			st.fixVariables()
		}
	}
	if !st.halted() {
		st.dedupRows()
	}
	switch {
	case st.overflow:
		return st.bail()
	case st.infeasible:
		return st.refuted()
	}
	return st.emit()
}

// halted reports that the system was refuted or an operation overflowed:
// every pass stops at the first sign of either.
func (st *state) halted() bool { return st.infeasible || st.overflow }

// runFixpoint sweeps the full rule set — normalization, bound
// propagation, implication resolution, variable fixing — until nothing
// changes, the system is refuted, or the round cap trips. On exit
// st.changed is false exactly when a clean fixpoint was reached.
func (st *state) runFixpoint() {
	for st.stats.Rounds < maxRounds {
		st.stats.Rounds++
		st.changed = false
		st.normalizeRows()
		if !st.halted() {
			st.propagateBounds()
		}
		if !st.halted() {
			st.resolveImplications()
		}
		if !st.halted() {
			st.fixVariables()
		}
		if st.halted() || !st.changed {
			break
		}
	}
}

// addConstraint canonicalizes one input constraint into ≥/= form, its
// terms carved from slab in ascending variable order, dropping explicit
// zero coefficients. It returns the rest of the slab.
func (st *state) addConstraint(con linear.Constraint, slab []term) []term {
	start := len(slab)
	for j, c := range con.Expr {
		if c != 0 {
			slab = append(slab, term{j, c})
		}
	}
	r := row{terms: slab[start:len(slab):len(slab)], rhs: con.Const}
	slices.SortFunc(r.terms, func(x, y term) int { return cmp.Compare(x.j, y.j) })
	switch con.Op {
	case linear.Eq:
		r.eq = true
	case linear.Ge:
	case linear.Le: // Σ a·x ≤ b  ⇔  Σ −a·x ≥ −b
		for i := range r.terms {
			r.terms[i].a = st.neg(r.terms[i].a)
		}
		r.rhs = st.neg(r.rhs)
	}
	st.rows = append(st.rows, r)
	return slab
}

// indexImplications groups the antecedents of the input implications by
// consequent, for the backward zero propagation. Implications only ever
// leave st.imps, and one that left can no longer propagate a zero (its
// antecedent is zero or its consequent positive), so the index of the
// input serves every round.
func (st *state) indexImplications() {
	if len(st.imps) == 0 {
		return
	}
	start := make([]int, st.n+2)
	for _, im := range st.imps {
		start[im.Then+2]++
	}
	for y := 2; y < len(start); y++ {
		start[y] += start[y-1]
	}
	st.revIf = make([]int, len(st.imps))
	for _, im := range st.imps {
		st.revIf[start[im.Then+1]] = im.If
		start[im.Then+1]++
	}
	st.revStart = start[:st.n+1]
	st.stack = make([]int, 0, st.n)
}

// normalizeRows substitutes fixed variables, checks and drops emptied
// rows, absorbs singletons into bounds, and GCD-tightens what remains.
func (st *state) normalizeRows() {
	kept := st.rows[:0]
	for _, r := range st.rows {
		live := r.terms[:0]
		for _, t := range r.terms {
			if !st.fixed[t.j] {
				live = append(live, t)
				continue
			}
			r.rhs = st.sub(r.rhs, st.mul(t.a, st.lo[t.j]))
			st.changed = true
		}
		r.terms = live
		if st.overflow {
			return
		}
		switch len(r.terms) {
		case 0:
			if (r.eq && r.rhs != 0) || (!r.eq && r.rhs > 0) {
				st.infeasible = true
				return
			}
			st.changed = true
			continue // trivially satisfied
		case 1:
			st.absorbSingleton(r)
			if st.halted() {
				return
			}
			st.changed = true
			continue
		}
		st.gcdTighten(&r)
		if st.halted() {
			return
		}
		kept = append(kept, r)
	}
	st.rows = kept
}

// absorbSingleton turns the one-variable row a·x (=,≥) b into a bound on x
// (an equality fixes the value or refutes the system).
func (st *state) absorbSingleton(r row) {
	j, a := r.terms[0].j, r.terms[0].a
	if r.eq {
		if r.rhs%a != 0 {
			st.infeasible = true // a·x = b with a ∤ b has no integer solution
			return
		}
		q := st.quo(r.rhs, a)
		st.raiseLo(j, q)
		st.lowerHi(j, q)
		return
	}
	if a > 0 {
		st.raiseLo(j, st.divCeil(r.rhs, a))
	} else {
		st.lowerHi(j, st.divFloor(r.rhs, a))
	}
}

// gcdTighten divides a multi-variable row by the gcd of its coefficients,
// refuting non-divisible equalities and rounding inequality constants to
// the integer hull.
func (st *state) gcdTighten(r *row) {
	var g int64
	for _, t := range r.terms {
		g = gcd(g, st.abs(t.a))
	}
	if st.overflow || g <= 1 {
		return
	}
	for i := range r.terms {
		r.terms[i].a /= g
	}
	if r.rhs%g != 0 {
		if r.eq {
			st.infeasible = true // Diophantine: g ∤ b
			return
		}
		st.stats.Tightened++
	}
	r.rhs = st.divCeil(r.rhs, g)
	st.changed = true
}

// propagateBounds derives per-variable bounds from row activity bounds.
// Equality rows propagate in both directions.
//
//xic:hotpath
func (st *state) propagateBounds() {
	for _, r := range st.rows {
		st.propagateGe(r.terms, r.rhs, false)
		if st.halted() {
			return
		}
		if r.eq {
			st.propagateGe(r.terms, r.rhs, true)
			if st.halted() {
				return
			}
		}
	}
}

// propagateGe treats the row as Σ a·x ≥ b (negated when neg is set) and,
// for each variable, bounds it by the best the remaining terms can
// contribute: a_j·x_j ≥ b − maxOther.
//
//xic:hotpath
func (st *state) propagateGe(terms []term, rhs int64, neg bool) {
	b := rhs
	if neg {
		b = st.neg(rhs)
	}
	var finite int64
	infCount, infVar := 0, -1
	for _, t := range terms {
		v, inf := st.termMax(t, neg)
		if inf {
			infCount++
			infVar = t.j
			continue
		}
		finite = st.add(finite, v)
	}
	if st.overflow || infCount > 1 {
		return // more than one unbounded term: no deduction on any variable
	}
	if infCount == 0 && finite < b {
		st.infeasible = true // even the best activity misses the constant
		return
	}
	for _, t := range terms {
		maxOther := finite
		if infCount == 0 {
			v, _ := st.termMax(t, neg)
			maxOther = st.sub(finite, v)
		} else if t.j != infVar {
			continue // another variable is unbounded; no deduction on j
		}
		residual := st.sub(b, maxOther) // a_j·x_j ≥ residual
		aj := t.a
		if neg {
			aj = st.neg(aj)
		}
		if st.overflow {
			return
		}
		if aj > 0 {
			st.raiseLo(t.j, st.divCeil(residual, aj))
		} else {
			st.lowerHi(t.j, st.divFloor(residual, aj))
		}
		if st.halted() {
			return
		}
	}
}

// termMax returns the maximum of a·x_j (−a·x_j when neg is set) over
// [lo_j, hi_j]; inf reports an unbounded term (positive coefficient, no
// upper bound).
//
//xic:hotpath
func (st *state) termMax(t term, neg bool) (v int64, inf bool) {
	pos := (t.a > 0) != neg
	if pos && !st.hasHi[t.j] {
		return 0, true
	}
	bound := st.lo[t.j]
	if pos {
		bound = st.hi[t.j]
	}
	v = st.mul(t.a, bound)
	if neg {
		v = st.neg(v)
	}
	return v, false
}

// isZero reports that x_j is forced to zero.
func (st *state) isZero(j int) bool { return st.hasHi[j] && st.hi[j] == 0 }

// resolveImplications applies the conditional-constraint rules: forced-zero
// consequents zero their antecedents through the transitive closure of the
// implication graph, then every implication that has become decided is
// dropped (materializing y ≥ 1 when its antecedent is forced positive).
func (st *state) resolveImplications() {
	if len(st.imps) == 0 {
		return
	}
	stack := st.stack[:0]
	for j := 0; j < st.n; j++ {
		if st.isZero(j) {
			stack = append(stack, j)
		}
	}
	// Every variable enters the stack at most once: when found zero above,
	// or when zeroed below.
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, x := range st.revIf[st.revStart[y]:st.revStart[y+1]] {
			if st.isZero(x) {
				continue
			}
			// x > 0 would force y > 0, impossible: x must be zero too.
			st.lowerHi(x, 0)
			if st.infeasible {
				return
			}
			stack = append(stack, x)
		}
	}

	kept := st.imps[:0]
	for _, im := range st.imps {
		switch {
		case st.isZero(im.If): // antecedent dead: vacuously satisfied
		case st.lo[im.Then] > 0: // consequent already positive
		case st.lo[im.If] > 0: // forced antecedent: becomes Then ≥ 1
			st.raiseLo(im.Then, 1)
			if st.infeasible {
				return
			}
		default:
			kept = append(kept, im)
			continue
		}
		st.changed = true
	}
	st.imps = kept
}

// fixVariables marks every variable whose bounds have met, refuting the
// system when bounds cross. Substitution into rows happens on the next
// normalizeRows sweep.
func (st *state) fixVariables() {
	for j := 0; j < st.n; j++ {
		if !st.hasHi[j] {
			continue
		}
		switch {
		case st.lo[j] > st.hi[j]:
			st.infeasible = true
			return
		case st.lo[j] == st.hi[j] && !st.fixed[j]:
			st.fixed[j] = true
			st.changed = true
		}
	}
}

// raiseLo raises the lower bound of j to at least v.
//
//xic:hotpath
func (st *state) raiseLo(j int, v int64) {
	if v <= st.lo[j] {
		return
	}
	st.lo[j] = v
	st.changed = true
	if st.hasHi[j] && v > st.hi[j] {
		st.infeasible = true
	}
}

// lowerHi lowers the upper bound of j to at most v.
//
//xic:hotpath
func (st *state) lowerHi(j int, v int64) {
	if st.hasHi[j] && v >= st.hi[j] {
		return
	}
	st.hi[j], st.hasHi[j] = v, true
	st.changed = true
	if st.lo[j] > v {
		st.infeasible = true
	}
}

// mergedRow accumulates every surviving row over one expression in
// sign-canonical form (first coefficient positive): at most one equality
// constant, the strongest lower constant (c·x ≥ lo) and the strongest
// upper constant (c·x ≤ hi). The expression is the first such row's
// terms, negated when flipped is set.
type mergedRow struct {
	terms               []term
	flipped             bool
	hasEq, hasLo, hasHi bool
	eqRHS, lo, hi       int64
}

// dedupRows merges duplicate and dominated rows. Two rows over the same
// expression keep only the strongest constants; opposite inequalities that
// meet become an equality; contradictions refute the system. The merged
// rows keep the order of each expression's first row.
func (st *state) dedupRows() {
	merged := make([]mergedRow, 0, len(st.rows))
	index := make(map[string]int, len(st.rows))
	var key []byte
	for _, r := range st.rows {
		flipped := r.terms[0].a < 0
		key = key[:0]
		for _, t := range r.terms {
			a := t.a
			if flipped {
				a = st.neg(a)
			}
			key = binary.AppendVarint(binary.AppendUvarint(key, uint64(t.j)), a)
		}
		rhs := r.rhs
		if flipped {
			rhs = st.neg(rhs)
		}
		if st.overflow {
			return
		}
		k, ok := index[string(key)]
		if !ok {
			k = len(merged)
			index[string(key)] = k
			merged = append(merged, mergedRow{terms: r.terms, flipped: flipped})
		}
		m := &merged[k]
		switch {
		case r.eq:
			if m.hasEq && m.eqRHS != rhs {
				st.infeasible = true // same expression equal to two constants
				return
			}
			m.hasEq, m.eqRHS = true, rhs
		case !flipped: // c·x ≥ rhs
			if !m.hasLo || rhs > m.lo {
				m.hasLo, m.lo = true, rhs
			}
		default: // original was (−c)·x ≥ −rhs, i.e. c·x ≤ rhs
			if !m.hasHi || rhs < m.hi {
				m.hasHi, m.hi = true, rhs
			}
		}
	}

	// Each merged row emits at most one row over its source's negated
	// terms; those are carved from one buffer, made on first use.
	width := 0
	for i := range merged {
		width += len(merged[i].terms)
	}
	var negated []term
	out := func(m *mergedRow, eq bool, rhs int64, negate bool) row {
		terms := m.terms
		if negate != m.flipped {
			if negated == nil {
				negated = make([]term, 0, width)
			}
			start := len(negated)
			for _, t := range m.terms {
				negated = append(negated, term{t.j, st.neg(t.a)})
			}
			terms = negated[start:len(negated):len(negated)]
		}
		if negate {
			rhs = st.neg(rhs)
		}
		return row{terms: terms, eq: eq, rhs: rhs}
	}
	rows := st.rows[:0]
	for i := range merged {
		m := &merged[i]
		switch {
		case m.hasEq:
			if (m.hasLo && m.lo > m.eqRHS) || (m.hasHi && m.hi < m.eqRHS) {
				st.infeasible = true // equality outside the inequality window
				return
			}
			rows = append(rows, out(m, true, m.eqRHS, false))
		case m.hasLo && m.hasHi:
			if m.lo > m.hi {
				st.infeasible = true
				return
			}
			if m.lo == m.hi {
				rows = append(rows, out(m, true, m.lo, false)) // window closed: a·x ≥ b and a·x ≤ b
				continue
			}
			rows = append(rows, out(m, false, m.lo, false), out(m, false, m.hi, true))
		case m.hasLo:
			rows = append(rows, out(m, false, m.lo, false))
		default:
			rows = append(rows, out(m, false, m.hi, true))
		}
	}
	st.rows = rows
}

// refuted finalizes the counters on a decided-infeasible exit: only the
// implications actually discharged count as resolved, and only genuinely
// fixed variables count as fixed, so the serving metrics stay honest on
// inconsistent-spec traffic.
func (st *state) refuted() *Result {
	st.finalizeCounters()
	return &Result{Decided: true, Stats: st.stats}
}

// finalizeCounters records the fixed-variable and surviving-implication
// counts for the state as it stands.
func (st *state) finalizeCounters() {
	st.stats.VarsFixed = 0
	for j := 0; j < st.n; j++ {
		if st.fixed[j] {
			st.stats.VarsFixed++
		}
	}
	st.stats.ImplicationsOut = len(st.imps)
}

// emit assembles the Result after a clean fixpoint: a decision when only
// consistent bounds remain, otherwise the reduced system.
func (st *state) emit() *Result {
	st.finalizeCounters()

	if len(st.rows) == 0 && len(st.imps) == 0 {
		// Only bounds remain, and every deduction was forced: the least
		// point x = lo satisfies them all, hence the input system.
		values := bigInts(st.lo, nil)
		if msg := st.sys.EvalBig(values); msg != "" {
			if st.allFixed() {
				// Every value is the only one any solution may take, so a
				// violated input row refutes the system outright.
				return &Result{Decided: true, Stats: st.stats}
			}
			// A free variable at its least value violating the input would
			// mean a dropped row lost information — a presolve bug. Stay
			// sound: hand the untouched input to the solver.
			return st.bail()
		}
		return &Result{Decided: true, Feasible: true, Values: values, Stats: st.stats}
	}

	red := linear.NewSystem()
	for j := 0; j < st.n; j++ {
		red.Var(st.sys.Name(j))
	}
	for j := 0; j < st.n; j++ {
		if st.sys.Auxiliary(j) {
			red.MarkAuxiliary(j)
		}
	}
	for _, r := range st.rows {
		e := make(linear.Expr, len(r.terms))
		for _, t := range r.terms {
			e[t.j] = t.a
		}
		if r.eq {
			red.AddEq(e, r.rhs)
		} else {
			red.AddGe(e, r.rhs)
		}
	}
	// Bounds of free variables become singleton rows: the originals were
	// absorbed above, so this is where that information returns to the
	// system — now deduplicated, integer-rounded and maximally tight.
	for j := 0; j < st.n; j++ {
		if st.fixed[j] {
			continue
		}
		if st.lo[j] > 0 {
			red.AddGe(linear.Term(j, 1), st.lo[j])
		}
		if st.hasHi[j] {
			red.AddLe(linear.Term(j, 1), st.hi[j])
		}
	}
	for _, im := range st.imps {
		red.AddImplication(im.If, im.Then)
	}
	st.stats.RowsOut = len(red.Constraints())
	return &Result{Sys: red, Fixed: bigInts(st.lo, st.fixed), Stats: st.stats}
}

func (st *state) allFixed() bool {
	for j := 0; j < st.n; j++ {
		if !st.fixed[j] {
			return false
		}
	}
	return true
}

// bigInts converts x to the Result's *big.Int form: every entry, or only
// those where only is set (nil elsewhere) when only is non-nil.
func bigInts(x []int64, only []bool) []*big.Int {
	out := make([]*big.Int, len(x))
	vals := make([]big.Int, len(x))
	for j, v := range x {
		if only == nil || only[j] {
			out[j] = vals[j].SetInt64(v)
		}
	}
	return out
}

// bail returns the untouched input: an operation overflowed int64, or
// the least point failed a safety check. The caller solves the raw input,
// so nothing counts as eliminated, fixed or resolved.
func (st *state) bail() *Result {
	st.stats.Bailed = true
	st.stats.RowsOut = st.stats.Rows
	st.stats.VarsFixed = 0
	st.stats.ImplicationsOut = st.stats.Implications
	return &Result{Sys: st.sys, Stats: st.stats}
}

// The checked int64 operations. Each returns the wrapped result and sets
// st.overflow when the exact one does not fit.

func (st *state) add(a, b int64) int64 {
	s := a + b
	if (s > a) != (b > 0) {
		st.overflow = true
	}
	return s
}

func (st *state) sub(a, b int64) int64 {
	d := a - b
	if (d < a) != (b > 0) {
		st.overflow = true
	}
	return d
}

func (st *state) mul(a, b int64) int64 {
	p := a * b
	if a != 0 && (p/a != b || (a == -1 && b == math.MinInt64)) {
		st.overflow = true
	}
	return p
}

func (st *state) neg(a int64) int64 {
	if a == math.MinInt64 {
		st.overflow = true
	}
	return -a
}

func (st *state) abs(a int64) int64 {
	if a < 0 {
		return st.neg(a)
	}
	return a
}

// quo returns b/a truncated, for a ≠ 0.
func (st *state) quo(b, a int64) int64 {
	if a == -1 && b == math.MinInt64 {
		st.overflow = true
	}
	return b / a
}

// divCeil returns ⌈b/a⌉ for a ≠ 0.
func (st *state) divCeil(b, a int64) int64 {
	q := st.quo(b, a)
	if r := b % a; r != 0 && (r > 0) == (a > 0) {
		q++ // |a| ≥ 2 here, so |q| < |b| and q+1 fits
	}
	return q
}

// divFloor returns ⌊b/a⌋ for a ≠ 0.
func (st *state) divFloor(b, a int64) int64 {
	q := st.quo(b, a)
	if r := b % a; r != 0 && (r > 0) != (a > 0) {
		q--
	}
	return q
}

// gcd returns the greatest common divisor of a, b ≥ 0 (gcd(0, b) = b).
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
