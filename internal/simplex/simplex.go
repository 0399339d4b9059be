// Package simplex is an exact rational linear-programming solver: a
// two-phase primal simplex with Bland's anti-cycling rule. It decides
// feasibility of {x ≥ 0 : A·x (≤,=,≥) b} and minimizes a linear objective
// over that polyhedron. Exact arithmetic matters here: the solver is the
// oracle inside a decision procedure (the paper's reduction of XML
// constraint consistency to linear integer programming), where
// floating-point drift would produce wrong answers, not just imprecise
// ones.
//
// There is one kernel (tableau.go): a sparse tableau, generic over its
// number type. Solve runs it on checked machine-word rationals (rat64,
// fast.go) and, when one of those overflows, reruns the same code from
// scratch on *big.Rat (bigArith below). Both instances pivot in the same
// Bland's-rule sequence, so a solve's statuses, pivot counts and vertex do
// not depend on which instance finished it.
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

// Term is one nonzero of a row or of the objective: Coef·x_Col.
type Term struct {
	Col  int
	Coef *big.Rat
}

// Row is the constraint Σ Terms[k].Coef·x_{Terms[k].Col} Rel RHS. Its
// terms are in strictly ascending column order, with no zero coefficient.
type Row struct {
	Terms []Term
	Rel   Rel
	RHS   *big.Rat
}

// Problem is an LP over nonnegative structural variables x_0 … x_{n-1}.
type Problem struct {
	nvars     int
	rows      []Row
	obj       []Term // minimized; nil means pure feasibility
	interrupt func() bool
	exact     bool // run the big.Rat instance only
}

// New returns the problem of minimizing Σ obj[k].Coef·x_{obj[k].Col}
// (nil: feasibility only) over nvars nonnegative variables subject to
// rows. The problem keeps rows and obj, and solving only reads them, so
// many problems can share one set of rows: the caller must not change
// them while a solve runs. It panics on a column outside [0, nvars), on
// columns out of ascending order and on a zero coefficient.
func New(nvars int, rows []Row, obj []Term) *Problem {
	for _, r := range rows {
		checkTerms(r.Terms, nvars)
	}
	checkTerms(obj, nvars)
	return &Problem{nvars: nvars, rows: rows, obj: obj}
}

func checkTerms(terms []Term, nvars int) {
	prev := -1
	for _, t := range terms {
		switch {
		case t.Col < 0 || t.Col >= nvars:
			panic(fmt.Sprintf("simplex: column %d out of range [0,%d)", t.Col, nvars))
		case t.Col <= prev:
			panic(fmt.Sprintf("simplex: column %d follows column %d", t.Col, prev))
		case t.Coef.Sign() == 0:
			panic(fmt.Sprintf("simplex: zero coefficient in column %d", t.Col))
		}
		prev = t.Col
	}
}

// SetExact runs the big.Rat instance only, skipping the rat64 one. It
// exists for ablation benchmarks and cross-validation; serving paths leave
// it off and rely on the automatic fallback.
func (p *Problem) SetExact(on bool) { p.exact = on }

// SetInterrupt installs a hook polled once per pivot; when it returns true
// the solve stops and reports Status Interrupted. Exact-rational pivots on
// large tableaus can take a long time, so this is the mechanism by which a
// context deadline reaches into the middle of an LP solve instead of
// waiting for it to finish.
func (p *Problem) SetInterrupt(f func() bool) { p.interrupt = f }

// Solution is the result of a solve. X is only meaningful when Status is
// Optimal; Obj is the objective value (0 for pure feasibility problems).
// Pivots counts pivot operations performed across both phases and both
// number types — the unit of simplex work that solver-level statistics
// aggregate. FastPivots is the subset performed on rat64; ExactFallback
// reports that rat64 overflowed (or hit its magnitude cap) and the solve
// was redone on big.Rat, in which case Pivots includes both the wasted
// rat64 pivots and the big.Rat rerun.
type Solution struct {
	Status        Status
	X             []*big.Rat
	Obj           *big.Rat
	Pivots        int
	FastPivots    int
	ExactFallback bool
}

// Solve runs two-phase simplex and returns the solution. Unless SetExact
// chose big.Rat, the rat64 instance runs first, and the big.Rat one reruns
// the solve from scratch only when rat64 overflows, trips its magnitude
// cap or finds the tableau inconsistent.
func (p *Problem) Solve() *Solution {
	if p.exact {
		sol, _ := solveWith[*big.Rat](p, bigArith{})
		return sol
	}
	fast, ok := solveWith[rat64](p, new(fastArith))
	if ok {
		fast.FastPivots = fast.Pivots
		return fast
	}
	sol, _ := solveWith[*big.Rat](p, bigArith{})
	sol.ExactFallback = true
	sol.FastPivots = fast.Pivots
	sol.Pivots += fast.Pivots
	return sol
}

// bigArith is the kernel's exact instance. Every operation returns a fresh
// value and never writes an operand, so the tableau copies *big.Rat
// pointers as freely as rat64 values and shares the input's coefficients
// without copying them.
type bigArith struct{}

func (bigArith) fromRat(v *big.Rat) *big.Rat { return v }
func (bigArith) fromInt(v int64) *big.Rat    { return new(big.Rat).SetInt64(v) }
func (bigArith) setRat(dst, v *big.Rat)      { dst.Set(v) }
func (bigArith) sign(a *big.Rat) int         { return a.Sign() }
func (bigArith) neg(a *big.Rat) *big.Rat     { return new(big.Rat).Neg(a) }
func (bigArith) inv(a *big.Rat) *big.Rat     { return new(big.Rat).Inv(a) }
func (bigArith) add(a, b *big.Rat) *big.Rat  { return new(big.Rat).Add(a, b) }
func (bigArith) sub(a, b *big.Rat) *big.Rat  { return new(big.Rat).Sub(a, b) }
func (bigArith) mul(a, b *big.Rat) *big.Rat  { return new(big.Rat).Mul(a, b) }
func (bigArith) quo(a, b *big.Rat) *big.Rat  { return new(big.Rat).Quo(a, b) }
func (bigArith) cmp(a, b *big.Rat) int       { return a.Cmp(b) }
func (bigArith) overflowed() bool            { return false }

func (bigArith) mulSub(a, f, b *big.Rat) *big.Rat {
	z := new(big.Rat).Mul(f, b)
	return z.Sub(a, z)
}

func (bigArith) negMul(f, b *big.Rat) *big.Rat {
	z := new(big.Rat).Mul(f, b)
	return z.Neg(z)
}

func (bigArith) firstNegative(row []*big.Rat) int {
	for j, v := range row {
		if v.Sign() < 0 {
			return j
		}
	}
	return -1
}
