// The int64 fast tableau: the pivot kernel Problem.Solve runs first. It
// executes the same two-phase Bland's-rule simplex as the dense big.Rat
// tableau in simplex.go, but over machine-word rationals and sparse rows:
// each constraint row keeps only its nonzeros, in column order, and a pivot
// touches only the rows with a nonzero in the entering column. Cardinality
// encodings are a few percent dense even after their last pivot, so the
// work and the memory follow the nonzeros, not m×ncols.
//
// Every operation is overflow-checked and the numerator/denominator
// magnitudes are capped (maxFastMag); the moment any value escapes the
// representable range — overflow, or a near-degenerate pivot blowing
// entries up — the whole solve falls back to the exact kernel, which is
// also the reference the fast one is tested against. Arithmetic here is
// still exact (normalized int64 fractions, never floats), so a completed
// fast solve returns bit-identical results to the rational path: same pivot
// sequence, same statuses, same vertex.
package simplex

import (
	"math"
	"math/big"
	"slices"
)

// maxFastMag caps the absolute numerator and the denominator of every
// fast-kernel rational. 1<<46 leaves ~17 bits of headroom under int64 for
// the cross-multiplications inside add/compare, and doubles as the
// near-degenerate guard: tableaus whose entries genuinely need larger
// numbers are exactly the ones where int64 pivoting would thrash through
// fallbacks one operation at a time, so bail out early and wholesale.
const maxFastMag = int64(1) << 46

// rat64 is a normalized machine-word rational: d > 0, gcd(|n|, d) == 1.
// The zero value is 0/0 and invalid; use makeRat.
type rat64 struct {
	n, d int64
}

func (r rat64) sign() int {
	switch {
	case r.n > 0:
		return 1
	case r.n < 0:
		return -1
	}
	return 0
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// gcd64 is the nonnegative gcd of nonnegative operands (gcd64(0, b) == b).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// makeRat normalizes n/d. It fails on d == 0, on MinInt64 operands (whose
// negation overflows), and on magnitudes beyond maxFastMag.
func makeRat(n, d int64) (rat64, bool) {
	if d == 0 || n == math.MinInt64 || d == math.MinInt64 {
		return rat64{}, false
	}
	if d < 0 {
		n, d = -n, -d
	}
	if n == 0 {
		return rat64{0, 1}, true
	}
	g := gcd64(abs64(n), d)
	n, d = n/g, d/g
	if n > maxFastMag || n < -maxFastMag || d > maxFastMag {
		return rat64{}, false
	}
	return rat64{n, d}, true
}

// makeInt is makeRat(n, 1) without the gcd: the magnitude cap is the only
// check an integer needs.
func makeInt(n int64) (rat64, bool) {
	if n > maxFastMag || n < -maxFastMag {
		return rat64{}, false
	}
	return rat64{n, 1}, true
}

// mul64 is overflow-checked multiplication. Operands of MinInt64 are
// rejected up front: MinInt64 * -1 wraps to itself and would pass the
// division test below.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	r := a * b
	if r/b != a {
		return 0, false
	}
	return r, true
}

// add64 is overflow-checked addition.
func add64(a, b int64) (int64, bool) {
	r := a + b
	if (a > 0 && b > 0 && r < 0) || (a < 0 && b < 0 && r >= 0) {
		return 0, false
	}
	return r, true
}

func negRat(a rat64) rat64 { return rat64{-a.n, a.d} }

// invRat fails on zero (a pivot element is never zero, so this is defensive).
func invRat(a rat64) (rat64, bool) {
	if a.n == 0 {
		return rat64{}, false
	}
	return makeRat(a.d*int64(sign1(a.n)), abs64(a.n))
}

func sign1(v int64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// addRat adds with every overflow and magnitude check. Integer operands,
// the common case on cardinality encodings, skip the cross-multiplication
// and the gcd.
func addRat(a, b rat64) (rat64, bool) {
	if a.d == 1 && b.d == 1 {
		n, ok := add64(a.n, b.n)
		if !ok {
			return rat64{}, false
		}
		return makeInt(n)
	}
	n1, ok := mul64(a.n, b.d)
	if !ok {
		return rat64{}, false
	}
	n2, ok := mul64(b.n, a.d)
	if !ok {
		return rat64{}, false
	}
	n, ok := add64(n1, n2)
	if !ok {
		return rat64{}, false
	}
	d, ok := mul64(a.d, b.d)
	if !ok {
		return rat64{}, false
	}
	return makeRat(n, d)
}

func subRat(a, b rat64) (rat64, bool) { return addRat(a, negRat(b)) }

// mulRat cross-cancels before multiplying so products stay as small as the
// normalized result allows. Integer operands skip the cancellation.
func mulRat(a, b rat64) (rat64, bool) {
	if a.d == 1 && b.d == 1 {
		n, ok := mul64(a.n, b.n)
		if !ok {
			return rat64{}, false
		}
		return makeInt(n)
	}
	g1 := gcd64(abs64(a.n), b.d)
	g2 := gcd64(abs64(b.n), a.d)
	n, ok := mul64(a.n/g1, b.n/g2)
	if !ok {
		return rat64{}, false
	}
	d, ok := mul64(a.d/g2, b.d/g1)
	if !ok {
		return rat64{}, false
	}
	return makeRat(n, d)
}

// cmpRat compares a and b by cross-multiplication; the products are checked
// because two in-range rationals can still overflow int64 when crossed.
func cmpRat(a, b rat64) (int, bool) {
	l, ok := mul64(a.n, b.d)
	if !ok {
		return 0, false
	}
	r, ok := mul64(b.n, a.d)
	if !ok {
		return 0, false
	}
	switch {
	case l < r:
		return -1, true
	case l > r:
		return 1, true
	}
	return 0, true
}

// ratFromBig converts an exact rational into the fast representation,
// failing when it does not fit in the capped int64 range.
func ratFromBig(v *big.Rat) (rat64, bool) {
	if !v.Num().IsInt64() || !v.Denom().IsInt64() {
		return rat64{}, false
	}
	return makeRat(v.Num().Int64(), v.Denom().Int64())
}

func (r rat64) toBig() *big.Rat { return new(big.Rat).SetFrac64(r.n, r.d) }

// entry is one nonzero of a sparse vector: in a tableau row idx is the
// column, in the gathered entering column it is the row.
type entry struct {
	idx int
	val rat64
}

// fastTableau is the sparse counterpart of tableau. The constraint rows
// hold their nonzeros in ascending column order and never store a zero;
// the objective row stays dense because entering-column selection scans
// it in full. Its pivoting methods follow the exact kernel's control flow
// precisely — same entering/leaving choices under Bland's rule — so that a
// completed fast solve and an exact solve of the same Problem are
// indistinguishable.
type fastTableau struct {
	m, ncols  int
	rows      [][]entry
	rhs       []rat64
	basis     []int
	objRow    []rat64
	objVal    rat64
	artStart  int
	interrupt func() bool
	pivots    int

	// col is the entering column's nonzeros, gathered once per pivot and
	// shared by the ratio test and the elimination; capacity m, never grows.
	col []entry
	// merge is the scratch row an elimination is written into before it
	// is copied back; it grows with fill-in (growMerge).
	merge []entry
}

// buildFastTableau converts the problem into a fast tableau, mirroring
// buildTableau. It fails when any coefficient, right-hand side, or
// objective entry does not fit the capped int64 rationals.
func (p *Problem) buildFastTableau() (*fastTableau, bool) {
	m := len(p.rows)
	nnz := 0
	slackCount := 0
	artCount := 0
	neg := make([]bool, m)
	rels := make([]Rel, m)
	for i := range p.rows {
		rel := p.rels[i]
		if p.rhs[i].Sign() < 0 {
			neg[i] = true
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
		nnz += len(p.rows[i])
	}
	ncols := p.nvars + slackCount + artCount
	t := &fastTableau{
		m:        m,
		ncols:    ncols,
		artStart: p.nvars + slackCount,
		objVal:   rat64{0, 1},
		rows:     make([][]entry, m),
		rhs:      make([]rat64, m),
		basis:    make([]int, m),
		objRow:   make([]rat64, ncols),
		col:      make([]entry, m),
	}
	// One slab holds every row as built; a row that fills in past its
	// share moves to its own buffer (growRow).
	slab := make([]entry, 0, nnz+slackCount+artCount)
	slack := p.nvars
	art := t.artStart
	for i, rel := range rels {
		start := len(slab)
		for _, e := range p.rows[i] {
			v, ok := ratFromBig(e.val)
			if !ok {
				return nil, false
			}
			if neg[i] {
				v = negRat(v)
			}
			slab = append(slab, entry{e.col, v})
		}
		// AddRow stores each column once and never a zero, so sorting is
		// all a row needs.
		slices.SortFunc(slab[start:], func(a, b entry) int { return a.idx - b.idx })
		r, ok := ratFromBig(p.rhs[i])
		if !ok {
			return nil, false
		}
		if neg[i] {
			r = negRat(r)
		}
		t.rhs[i] = r
		// Slack and artificial columns sit past every structural one, so
		// appending them keeps the row in column order.
		switch rel {
		case Le:
			slab = append(slab, entry{slack, rat64{1, 1}})
			t.basis[i] = slack
			slack++
		case Ge:
			slab = append(slab, entry{slack, rat64{-1, 1}}, entry{art, rat64{1, 1}})
			t.basis[i] = art
			slack++
			art++
		case Eq:
			slab = append(slab, entry{art, rat64{1, 1}})
			t.basis[i] = art
			art++
		}
		t.rows[i] = slab[start:len(slab):len(slab)]
	}
	for j := range t.objRow {
		t.objRow[j] = rat64{0, 1}
	}
	return t, true
}

// setPhase1Objective mirrors tableau.setPhase1Objective.
//
//xic:hotpath
func (t *fastTableau) setPhase1Objective() bool {
	for j := 0; j < t.ncols; j++ {
		t.objRow[j] = rat64{0, 1}
		if j >= t.artStart {
			t.objRow[j] = rat64{1, 1}
		}
	}
	t.objVal = rat64{0, 1}
	for i, b := range t.basis {
		if b >= t.artStart {
			for _, e := range t.rows[i] {
				v, ok := subRat(t.objRow[e.idx], e.val)
				if !ok {
					return false
				}
				t.objRow[e.idx] = v
			}
			v, ok := addRat(t.objVal, t.rhs[i])
			if !ok {
				return false
			}
			t.objVal = v
		}
	}
	return true
}

// setObjective mirrors tableau.setObjective.
func (t *fastTableau) setObjective(obj map[int]*big.Rat) bool {
	c := make([]rat64, t.ncols)
	for j := range c {
		c[j] = rat64{0, 1}
	}
	for j, v := range obj {
		fv, ok := ratFromBig(v)
		if !ok {
			return false
		}
		c[j] = fv
	}
	copy(t.objRow, c)
	t.objVal = rat64{0, 1}
	for i, b := range t.basis {
		if c[b].sign() == 0 {
			continue
		}
		cb := c[b]
		for _, e := range t.rows[i] {
			prod, ok := mulRat(cb, e.val)
			if !ok {
				return false
			}
			v, ok := subRat(t.objRow[e.idx], prod)
			if !ok {
				return false
			}
			t.objRow[e.idx] = v
		}
		prod, ok := mulRat(cb, t.rhs[i])
		if !ok {
			return false
		}
		v, ok := addRat(t.objVal, prod)
		if !ok {
			return false
		}
		t.objVal = v
	}
	return true
}

// find returns the position of column j in a row, or -1.
//
//xic:hotpath
func find(row []entry, j int) int {
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
func (t *fastTableau) gather(j int) {
	col := t.col[:cap(t.col)]
	n := 0
	for i, row := range t.rows {
		if k := find(row, j); k >= 0 {
			col[n] = entry{i, row[k].val}
			n++
		}
	}
	t.col = col[:n]
}

// pivotToOptimality mirrors tableau.pivotToOptimality: same Bland's-rule
// entering column, same min-ratio/smallest-basic-index leaving row. The
// extra bool distinguishes "ran to a verdict" from "overflowed mid-search";
// the outcome is only meaningful when ok is true.
//
//xic:hotpath
func (t *fastTableau) pivotToOptimality(colLimit int) (pivotOutcome, bool) {
	for {
		if t.interrupt != nil && t.interrupt() {
			return pivotInterrupted, true
		}
		enter := -1
		for j := 0; j < colLimit; j++ {
			if t.objRow[j].sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return pivotOptimal, true
		}
		t.gather(enter)
		leave := -1
		var best rat64
		for _, e := range t.col {
			if e.val.sign() <= 0 {
				continue
			}
			inv, ok := invRat(e.val)
			if !ok {
				return pivotOptimal, false
			}
			ratio, ok := mulRat(t.rhs[e.idx], inv)
			if !ok {
				return pivotOptimal, false
			}
			if leave < 0 {
				leave = e.idx
				best = ratio
				continue
			}
			cmp, ok := cmpRat(ratio, best)
			if !ok {
				return pivotOptimal, false
			}
			if cmp < 0 || (cmp == 0 && t.basis[e.idx] < t.basis[leave]) {
				leave = e.idx
				best = ratio
			}
		}
		if leave < 0 {
			return pivotUnbounded, true
		}
		if !t.pivot(leave, enter) {
			return pivotOptimal, false
		}
	}
}

// pivot mirrors tableau.pivot; false means an entry escaped the fast range.
// t.col must hold column enter, as gathered by gather.
//
//xic:hotpath
func (t *fastTableau) pivot(leave, enter int) bool {
	t.pivots++
	prow := t.rows[leave]
	k := find(prow, enter)
	if k < 0 {
		return false
	}
	inv, ok := invRat(prow[k].val)
	if !ok {
		return false
	}
	for k := range prow {
		v, ok := mulRat(prow[k].val, inv)
		if !ok {
			return false
		}
		prow[k].val = v
	}
	v, ok := mulRat(t.rhs[leave], inv)
	if !ok {
		return false
	}
	t.rhs[leave] = v
	for _, e := range t.col {
		i := e.idx
		if i == leave {
			continue
		}
		if !t.eliminate(i, e.val, prow) {
			return false
		}
		prod, ok := mulRat(e.val, t.rhs[leave])
		if !ok {
			return false
		}
		nv, ok := subRat(t.rhs[i], prod)
		if !ok {
			return false
		}
		t.rhs[i] = nv
	}
	if t.objRow[enter].sign() != 0 {
		factor := t.objRow[enter]
		for _, e := range prow {
			prod, ok := mulRat(factor, e.val)
			if !ok {
				return false
			}
			nv, ok := subRat(t.objRow[e.idx], prod)
			if !ok {
				return false
			}
			t.objRow[e.idx] = nv
		}
		prod, ok := mulRat(factor, t.rhs[leave])
		if !ok {
			return false
		}
		nv, ok := addRat(t.objVal, prod)
		if !ok {
			return false
		}
		t.objVal = nv
	}
	t.basis[leave] = enter
	return true
}

// eliminate sets row i to row i − factor·prow by merging the two
// column-ordered nonzero lists, dropping entries that cancel to exactly
// zero (the entering column always does).
//
//xic:hotpath
func (t *fastTableau) eliminate(i int, factor rat64, prow []entry) bool {
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
			prod, ok := mulRat(factor, prow[b].val)
			if !ok {
				return false
			}
			out[n] = entry{prow[b].idx, negRat(prod)}
			n++
			b++
		default:
			prod, ok := mulRat(factor, prow[b].val)
			if !ok {
				return false
			}
			v, ok := subRat(row[a].val, prod)
			if !ok {
				return false
			}
			if v.n != 0 {
				out[n] = entry{row[a].idx, v}
				n++
			}
			a++
			b++
		}
	}
	n += copy(out[n:], row[a:])
	for ; b < len(prow); b++ {
		prod, ok := mulRat(factor, prow[b].val)
		if !ok {
			return false
		}
		out[n] = entry{prow[b].idx, negRat(prod)}
		n++
	}
	if n > cap(row) {
		row = t.growRow(i, n) //xic:ignore hotalloc amortized growth: a row's buffer grows only with its own fill-in
	}
	t.rows[i] = row[:n]
	copy(t.rows[i], out[:n])
	return true
}

func (t *fastTableau) growMerge(need int) {
	t.merge = make([]entry, max(2*cap(t.merge), need))
}

// growRow gives row i a buffer for at least n entries; the caller
// overwrites it whole, so nothing is copied.
func (t *fastTableau) growRow(i, n int) []entry {
	return make([]entry, 0, max(2*cap(t.rows[i]), n))
}

// driveOutArtificials mirrors tableau.driveOutArtificials. A row's first
// nonzero is its smallest column, so a basic artificial can be pivoted out
// exactly when that column is below artStart.
//
//xic:hotpath
func (t *fastTableau) driveOutArtificials() bool {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		if row := t.rows[i]; len(row) > 0 && row[0].idx < t.artStart {
			j := row[0].idx
			t.gather(j)
			if !t.pivot(i, j) {
				return false
			}
		}
	}
	return true
}

// solveFast attempts the whole two-phase solve on the fast kernel. It
// returns the solution, the number of fast pivots performed, and whether
// the kernel ran to completion. A false return means overflow or the
// magnitude cap fired somewhere; the caller reruns on the exact kernel and
// charges the attempted pivots as wasted fast work. Interrupted counts as
// completion — the caller is abandoning the solve either way, and rerunning
// the exact kernel would only re-discover the same interrupt.
func (p *Problem) solveFast() (*Solution, int, bool) {
	t, ok := p.buildFastTableau()
	if !ok {
		return nil, 0, false
	}
	t.interrupt = p.interrupt
	if !t.setPhase1Objective() {
		return nil, t.pivots, false
	}
	outcome, ok := t.pivotToOptimality(t.ncols)
	if !ok {
		return nil, t.pivots, false
	}
	switch outcome {
	case pivotInterrupted:
		return &Solution{Status: Interrupted, Pivots: t.pivots}, t.pivots, true
	case pivotUnbounded:
		// Phase 1 is bounded below by 0 on a well-formed tableau; since the
		// fast kernel is exact (no rounding), an unbounded report here is
		// the same solver bug the exact kernel would diagnose. Fall back so
		// the authoritative kernel makes the call.
		return nil, t.pivots, false
	}
	if t.objVal.sign() > 0 {
		return &Solution{Status: Infeasible, Pivots: t.pivots}, t.pivots, true
	}
	if !t.driveOutArtificials() {
		return nil, t.pivots, false
	}
	if !t.setObjective(p.obj) {
		return nil, t.pivots, false
	}
	outcome, ok = t.pivotToOptimality(t.artStart)
	if !ok {
		return nil, t.pivots, false
	}
	switch outcome {
	case pivotInterrupted:
		return &Solution{Status: Interrupted, Pivots: t.pivots}, t.pivots, true
	case pivotUnbounded:
		return &Solution{Status: Unbounded, Pivots: t.pivots}, t.pivots, true
	}
	x := make([]*big.Rat, p.nvars)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < p.nvars {
			x[b] = t.rhs[i].toBig()
		}
	}
	return &Solution{Status: Optimal, X: x, Obj: t.objVal.toBig(), Pivots: t.pivots}, t.pivots, true
}
