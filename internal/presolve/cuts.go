// Root-node Chvátal–Gomory cutting planes. For a canonical row
// Σ a_j·x_j ≥ b over nonnegative integer variables and any modulus λ > 1,
// dividing by λ and rounding every coefficient up is valid:
//
//	Σ ⌈a_j/λ⌉·x_j  ≥  Σ (a_j/λ)·x_j  ≥  b/λ        (x ≥ 0)
//
// and since the left-hand side is an integer, it is in fact ≥ ⌈b/λ⌉. The
// rounded row cuts off fractional LP vertices the original admits — the
// classic example is 2x + 2y ≥ 7, whose λ=2 cut x + y ≥ 4 excludes the
// relaxation optimum (x, y) = (3.5, 0) that branch-and-bound would
// otherwise have to split on. Equality rows are cut in both directions.
//
// Cuts run once, at the root, between two presolve fixpoint passes: the
// first pass canonicalizes and tightens rows so the moduli are meaningful,
// the second propagates whatever the cuts expose (often a refutation or a
// fixing that ends the solve with no search at all). They are generated
// only from a clean fixpoint — a capped, still-diverging propagation state
// must not gain rows — and only when they genuinely tighten: the modulus
// must not divide the right-hand side, and must not divide every
// coefficient (gcdTighten already owns that case).
package presolve

import "slices"

// maxCuts caps cut generation per system. Cuts multiply rows, and every
// row is LP-tableau weight downstream when presolve cannot decide; the
// encodings this engine produces are refuted or fixed by the first few
// useful cuts, so a small cap keeps the failure mode (useless cuts on a
// genuinely hard system) cheap.
const maxCuts = 16

// maxCutRowWidth restricts cutting to narrow rows. A C-G cut inherits the
// support of its source row, and on the wide rows of a large encoding the
// rounded coefficients land near the originals — a dense near-duplicate
// that fattens every later pivot and tends to reshape (not shrink) the
// search tree. The cuts that decide systems at the root come from rows
// with a handful of variables, where rounding changes the geometry.
const maxCutRowWidth = 4

// maxCutSystemRows gates cutting on overall system size. On systems that
// survive propagation with many rows, added cuts measurably grow the
// branch-and-bound tree (they perturb the min-Σx relaxation optimum and
// with it the branching order) while every retained row taxes each pivot;
// the systems cuts actually decide — refutation or an integral root — are
// the small ones where a couple of rounded rows change the polytope.
const maxCutSystemRows = 16

// generateCuts appends Chvátal–Gomory cuts for the current rows and
// reports whether it added any (or refuted the system outright via an
// empty cut with a positive right-hand side).
func (st *state) generateCuts() bool {
	if len(st.rows) > maxCutSystemRows {
		return false
	}
	before := st.stats.Cuts
	base := st.rows // snapshot: cuts are not themselves re-cut
	for _, r := range base {
		if st.halted() || st.stats.Cuts-before >= maxCuts {
			break
		}
		st.cutRow(r.terms, r.rhs, false, before)
		if r.eq && !st.halted() && st.stats.Cuts-before < maxCuts {
			// The reverse direction Σ −a_j·x_j ≥ −b of an equality row.
			st.cutRow(r.terms, r.rhs, true, before)
		}
	}
	return !st.overflow && (st.stats.Cuts > before || st.infeasible)
}

// cutRow generates the cuts of one ≥-direction row (the row negated when
// neg is set): one per distinct useful modulus among the coefficient
// magnitudes, in ascending variable order.
func (st *state) cutRow(terms []term, rhs int64, neg bool, before int) {
	if len(terms) > maxCutRowWidth {
		return
	}
	if neg {
		rhs = st.neg(rhs)
	}
	var seen [maxCutRowWidth]int64
	nseen := 0
	for _, t := range terms {
		if st.stats.Cuts-before >= maxCuts {
			return
		}
		lambda := st.abs(t.a)
		if st.overflow {
			return
		}
		if lambda <= 1 || slices.Contains(seen[:nseen], lambda) {
			continue
		}
		seen[nseen] = lambda
		nseen++
		if !usefulModulus(terms, rhs, lambda) {
			continue
		}
		cut := row{terms: make([]term, 0, len(terms)), rhs: st.divCeil(rhs, lambda)}
		for _, u := range terms {
			c := u.a
			if neg {
				c = st.neg(c)
			}
			if v := st.divCeil(c, lambda); v != 0 {
				cut.terms = append(cut.terms, term{u.j, v})
			}
		}
		if st.overflow {
			return
		}
		if len(cut.terms) == 0 {
			// Every rounded coefficient vanished: the cut reads 0 ≥ rhs'.
			if cut.rhs > 0 {
				st.infeasible = true
				return
			}
			continue // trivially true, nothing gained
		}
		st.rows = append(st.rows, cut)
		st.stats.Cuts++
		st.changed = true
	}
}

// usefulModulus reports whether λ produces a cut that actually tightens:
// λ must not divide the right-hand side (otherwise ⌈b/λ⌉ = b/λ and the
// cut is dominated by the original row) and must not divide every
// coefficient (that case is exact division, already handled by
// gcdTighten). Divisibility ignores sign, so the test serves a row and
// its negation alike.
func usefulModulus(terms []term, rhs, lambda int64) bool {
	if rhs%lambda == 0 {
		return false
	}
	for _, t := range terms {
		if t.a%lambda != 0 {
			return true
		}
	}
	return false
}
