// Package ilp decides integer feasibility of the linear systems produced by
// the cardinality encodings: does an integer point x ≥ 0 satisfy all
// constraints and all conditionals (x > 0 → y > 0)? This is the paper's
// Linear Integer Programming oracle (Section 4.1). The implementation is
// branch-and-bound over the exact rational simplex: the LP relaxation is
// solved with a minimise-Σx objective (keeping witnesses small), fractional
// variables are branched on, and conditional constraints are enforced
// lazily by case-splitting — exactly the Ψ_X subsets in the proof of
// Theorem 4.1, explored on demand instead of eagerly.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"xic/internal/linear"
	"xic/internal/presolve"
	"xic/internal/simplex"
)

// ErrNodeLimit is returned when the search exceeds Options.MaxNodes. The
// consistency problem is NP-complete (Theorem 4.7), so a resource bound is
// the honest alternative to unbounded running time.
var ErrNodeLimit = errors.New("ilp: node limit exceeded")

// ErrInternal is returned when the LP oracle reports an inconsistent
// tableau — a solver bug, not a property of the input. It used to be a
// panic deep inside the simplex; surfacing it as an error keeps a serving
// process alive and lets the Spec boundary classify it.
var ErrInternal = errors.New("ilp: internal solver error (inconsistent simplex tableau)")

// ErrInvalidOptions is returned (wrapped, with the offending field named)
// when Options carries a nonsense value — a negative node budget or a
// negative parallelism. Rejecting loudly replaces the old behaviour of
// silently substituting DefaultMaxNodes for negative MaxNodes, which gave
// API callers 20000 nodes instead of a diagnostic.
var ErrInvalidOptions = errors.New("ilp: invalid options")

// Options configures the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (LP solves).
	// Zero means DefaultMaxNodes; negative values are rejected with
	// ErrInvalidOptions.
	MaxNodes int
	// Parallelism is the number of branch-and-bound workers. 0 and 1 both
	// mean one worker, which searches on the calling goroutine, depth
	// first; negative values are rejected with ErrInvalidOptions. Verdicts
	// are identical at any parallelism — only the witness and the node
	// count may differ, because several workers explore the tree in
	// another order than one.
	Parallelism int
	// DisablePresolve skips presolve, running the branch-and-bound search
	// on the raw system. It exists for ablation benchmarks and
	// cross-validation; serving paths leave it off.
	DisablePresolve bool
	// DisableFastTableau runs every LP on the simplex kernel's big.Rat
	// instance, skipping its overflow-checked int64 one. It exists for
	// ablation benchmarks and cross-validation; serving paths leave it off.
	DisableFastTableau bool
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is 0.
const DefaultMaxNodes = 20000

func (o *Options) maxNodes() int {
	if o == nil || o.MaxNodes <= 0 {
		return DefaultMaxNodes
	}
	return o.MaxNodes
}

// validate rejects nonsense option values up front, before any search
// work. Solve and SolveMatrix call it first, so an invalid Options never
// silently degrades into defaults.
func (o *Options) validate() error {
	if o == nil {
		return nil
	}
	if o.MaxNodes < 0 {
		return fmt.Errorf("%w: MaxNodes %d is negative", ErrInvalidOptions, o.MaxNodes)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism %d is negative", ErrInvalidOptions, o.Parallelism)
	}
	return nil
}

func (o *Options) presolveEnabled() bool { return o == nil || !o.DisablePresolve }

func (o *Options) fastTableauEnabled() bool { return o == nil || !o.DisableFastTableau }

func (o *Options) parallelism() int {
	if o == nil || o.Parallelism <= 1 {
		return 1
	}
	return o.Parallelism
}

// Stats describes how a feasibility question was answered: what presolve
// eliminated, whether the answer needed any LP solve at all, and how much
// simplex work the search performed. Serving layers aggregate these into
// their hit/shrink counters.
type Stats struct {
	// Presolve is what the presolve pass did (zero value when disabled).
	Presolve presolve.Stats
	// PresolveUsed reports that the presolve layer ran.
	PresolveUsed bool
	// PresolveDecided reports that presolve answered the question outright:
	// no simplex pivot, no branch-and-bound node.
	PresolveDecided bool
	// FastPath reports that the (presolved) system had no conditional
	// constraints and the root LP relaxation alone decided: either the
	// relaxation was infeasible, or its optimum was integral and is itself
	// the witness. No branching happened.
	FastPath bool
	// Pivots is the total number of simplex pivots across every LP solve
	// of the search, on both number types: int64 pivots (including wasted
	// attempts that fell back) plus big.Rat pivots.
	Pivots int
	// FastPivots is the subset of Pivots performed on int64.
	FastPivots int
	// ExactFallbacks counts LP solves that overflowed int64 (or hit the
	// magnitude cap) and were redone on big.Rat.
	ExactFallbacks int
	// Steals counts subproblems a worker took from another worker's
	// deque; always 0 with one worker.
	Steals int
}

// Result is the outcome of a feasibility search. Nodes counts the LP
// relaxations actually solved; it never exceeds Options.MaxNodes, and it is
// 0 when presolve or the GCD test decided without any LP. On error a
// non-nil Result still reports Nodes and Stats, so callers can account for
// work even when the search aborts.
type Result struct {
	Feasible bool
	Values   []*big.Int // satisfying assignment, indexed by variable; nil unless Feasible
	Nodes    int        // branch-and-bound nodes explored (LP solves)
	Stats    Stats      // how the answer was reached
}

// Solve decides whether the system has a nonnegative integer solution
// satisfying all constraints and conditionals. Presolve (package presolve)
// runs first: many encoding-shaped systems are decided or drastically
// shrunk before any simplex pivot. What survives goes to the GCD test and
// then to branch-and-bound, whose root node is the LP relaxation of the
// whole system. The context is checked once per node: cancelling it
// aborts the NP search promptly, returning an error wrapping ctx.Err(). A
// nil context never cancels.
func Solve(ctx context.Context, sys *linear.System, opt *Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return &Result{}, err
	}
	if !opt.presolveEnabled() {
		return branchAndBound(ctx, specForOptions(specFromSystem(sys), opt), opt, nil, Stats{})
	}
	pre := presolve.Run(sys)
	stats := Stats{Presolve: pre.Stats, PresolveUsed: true}
	if pre.Decided {
		stats.PresolveDecided = true
		return &Result{Feasible: pre.Feasible, Values: pre.Values, Stats: stats}, nil
	}
	return branchAndBound(ctx, specForOptions(specFromSystem(pre.Sys), opt), opt, pre.Fixed, stats)
}

// specForOptions threads per-solve solver options into the spec, where the
// LP builder can see them.
func specForOptions(spec *problemSpec, opt *Options) *problemSpec {
	spec.exactLP = !opt.fastTableauEnabled()
	return spec
}

// SolveMatrix decides nonnegative integer feasibility of the LIP instance
// A·x ≥ b (the paper's problem statement, with the nonnegativity that all
// encodings carry explicitly). Cancellation behaves as in Solve.
func SolveMatrix(ctx context.Context, m *linear.Matrix, opt *Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return &Result{}, err
	}
	spec := newSpec(m.Cols(), nil, nil)
	for r := range m.A {
		var terms []simplex.Term
		for c, v := range m.A[r] {
			if v.Sign() != 0 {
				terms = append(terms, simplex.Term{Col: c, Coef: new(big.Rat).SetInt(v)})
			}
		}
		spec.rows = append(spec.rows, simplex.Row{Terms: terms, Rel: simplex.Ge, RHS: new(big.Rat).SetInt(m.B[r])})
	}
	// Matrix instances carry big.Int data the int64-based presolve cannot
	// represent; they go straight to the search.
	return branchAndBound(ctx, specForOptions(spec, opt), opt, nil, Stats{})
}

// problemSpec is what a search solves. Its rows and objective are built
// once per search and shared, read only, by every node's LP, which adds
// its own bound rows.
type problemSpec struct {
	n            int
	rows         []simplex.Row
	obj          []simplex.Term // min Σx over the non-auxiliary variables
	units        []simplex.Term // units[j] is the term 1·x_j of a bound row
	implications []linear.Implication
	exactLP      bool // run every LP on big.Rat
}

// newSpec starts the spec of an n-variable search: the min-Σx objective,
// which keeps witnesses small, over the variables auxiliary does not
// mark (nil marks none).
func newSpec(n int, implications []linear.Implication, auxiliary func(i int) bool) *problemSpec {
	one := big.NewRat(1, 1)
	spec := &problemSpec{n: n, units: make([]simplex.Term, n), implications: implications}
	for j := range spec.units {
		spec.units[j] = simplex.Term{Col: j, Coef: one}
		if auxiliary == nil || !auxiliary(j) {
			spec.obj = append(spec.obj, spec.units[j])
		}
	}
	return spec
}

func specFromSystem(sys *linear.System) *problemSpec {
	spec := newSpec(sys.VarCount(), sys.Implications(), sys.Auxiliary)
	cons := sys.Constraints()
	nnz := 0
	for _, con := range cons {
		nnz += len(con.Expr)
	}
	// One slab holds every row's terms.
	slab := make([]simplex.Term, 0, nnz)
	spec.rows = make([]simplex.Row, len(cons))
	for i, con := range cons {
		start := len(slab)
		for j, v := range con.Expr {
			if v == 0 {
				// A zero entry carries no constraint but would densify the
				// simplex tableau row; skip it, as SolveMatrix does.
				continue
			}
			slab = append(slab, simplex.Term{Col: j, Coef: new(big.Rat).SetInt64(v)})
		}
		terms := slab[start:len(slab):len(slab)]
		slices.SortFunc(terms, func(a, b simplex.Term) int { return a.Col - b.Col })
		var rel simplex.Rel
		switch con.Op {
		case linear.Eq:
			rel = simplex.Eq
		case linear.Le:
			rel = simplex.Le
		case linear.Ge:
			rel = simplex.Ge
		}
		spec.rows[i] = simplex.Row{Terms: terms, Rel: rel, RHS: new(big.Rat).SetInt64(con.Const)}
	}
	return spec
}

// node is a branch-and-bound node: per-variable bounds, copy-on-branch.
type node struct {
	lo []*big.Int // nil entry means 0
	hi []*big.Int // nil entry means +∞
}

func (nd *node) child() *node {
	c := &node{lo: make([]*big.Int, len(nd.lo)), hi: make([]*big.Int, len(nd.hi))}
	copy(c.lo, nd.lo)
	copy(c.hi, nd.hi)
	return c
}

// branchAndBound runs the search over spec. fixed carries the values of
// variables presolve substituted out of the system (nil entries are free);
// they are merged back into any satisfying assignment so callers always
// see a complete witness. stats accumulates into the returned Result.
//
// Node accounting is exact: Result.Nodes counts LP relaxations actually
// solved, never exceeds Options.MaxNodes (the search stops before starting
// node MaxNodes+1), and is 0 when the GCD test refutes the system without
// any LP. Every error path still returns a non-nil Result carrying the
// node count, so the Spec boundary can classify the error and callers can
// read Result.Nodes without a nil check.
func branchAndBound(ctx context.Context, spec *problemSpec, opt *Options, fixed []*big.Int, stats Stats) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if infeasibleByGCD(spec) {
		return &Result{Feasible: false, Stats: stats}, nil
	}
	return search(ctx, spec, opt, fixed, stats, opt.parallelism())
}

// branchChildren splits nd on the fractional value v of variable j:
// left gets x_j ≤ ⌊v⌋, right gets x_j ≥ ⌊v⌋+1.
func branchChildren(nd *node, j int, v *big.Rat) (left, right *node) {
	floor := ratFloor(v)
	left = nd.child() // x_j ≤ ⌊v⌋
	if left.hi[j] == nil || left.hi[j].Cmp(floor) > 0 {
		left.hi[j] = floor
	}
	right = nd.child() // x_j ≥ ⌊v⌋+1
	up := new(big.Int).Add(floor, big.NewInt(1))
	if right.lo[j] == nil || right.lo[j].Cmp(up) < 0 {
		right.lo[j] = up
	}
	return left, right
}

// implicationChildren case-splits nd on a violated conditional x>0 → y>0:
// the zero branch forces x = 0, the pos branch forces y ≥ 1.
func implicationChildren(nd *node, imp linear.Implication) (zero, pos *node) {
	zero = nd.child() // x = 0 branch satisfies the conditional
	zero.hi[imp.If] = big.NewInt(0)
	pos = nd.child() // y ≥ 1 branch satisfies it too
	one := big.NewInt(1)
	if pos.lo[imp.Then] == nil || pos.lo[imp.Then].Cmp(one) < 0 {
		pos.lo[imp.Then] = big.NewInt(1)
	}
	return zero, pos
}

// integralValues copies an integral LP vertex into integer values.
func integralValues(spec *problemSpec, sol *simplex.Solution) []*big.Int {
	values := make([]*big.Int, spec.n)
	for i, v := range sol.X {
		values[i] = new(big.Int).Set(v.Num())
	}
	return values
}

// mergeFixed overwrites the entries presolve fixed: the reduced system no
// longer mentions those variables, so the LP left them at zero.
func mergeFixed(values, fixed []*big.Int) {
	for j, v := range fixed {
		if v != nil {
			values[j] = new(big.Int).Set(v)
		}
	}
}

// solveLP is a variable so tests can force solver statuses that are
// unreachable through well-formed inputs (the min-Σx objective over x ≥ 0
// is bounded below, so simplex.Unbounded is a defensive branch). The stop
// hook is the search's lock-free kill switch: non-nil only when several
// workers search, polled once per pivot alongside the context so a
// finished search interrupts every sibling LP promptly.
var solveLP = realSolveLP

func realSolveLP(ctx context.Context, spec *problemSpec, nd *node, stop func() bool) *simplex.Solution {
	// The full slice expression makes the first bound row copy the shared
	// rows instead of writing past them into another node's.
	rows := spec.rows[:len(spec.rows):len(spec.rows)]
	for j := 0; j < spec.n; j++ {
		unit := spec.units[j : j+1 : j+1]
		if nd.lo[j] != nil && nd.lo[j].Sign() > 0 {
			rows = append(rows, simplex.Row{Terms: unit, Rel: simplex.Ge, RHS: new(big.Rat).SetInt(nd.lo[j])})
		}
		if nd.hi[j] != nil {
			rows = append(rows, simplex.Row{Terms: unit, Rel: simplex.Le, RHS: new(big.Rat).SetInt(nd.hi[j])})
		}
	}
	p := simplex.New(spec.n, rows, spec.obj)
	p.SetExact(spec.exactLP)
	if cancellable := ctx.Done() != nil; cancellable || stop != nil {
		// Exact-rational pivots on big tableaus are slow; poll the context
		// (and the parallel stop flag) once per pivot so deadlines and
		// sibling-worker verdicts interrupt even a single LP solve.
		p.SetInterrupt(func() bool {
			if stop != nil && stop() {
				return true
			}
			return cancellable && ctx.Err() != nil
		})
	}
	return p.Solve()
}

func firstFractional(x []*big.Rat) int {
	for j, v := range x {
		if !v.IsInt() {
			return j
		}
	}
	return -1
}

func violatedImplication(spec *problemSpec, values []*big.Int) (linear.Implication, bool) {
	for _, imp := range spec.implications {
		if values[imp.If].Sign() > 0 && values[imp.Then].Sign() == 0 {
			return imp, true
		}
	}
	return linear.Implication{}, false
}

// infeasibleByGCD applies the Diophantine necessary condition to equality
// rows with integer data: if gcd of the coefficients does not divide the
// constant, no integer point exists regardless of bounds.
func infeasibleByGCD(spec *problemSpec) bool {
	for _, r := range spec.rows {
		if r.Rel != simplex.Eq || !r.RHS.IsInt() {
			continue
		}
		g := new(big.Int)
		allInt := true
		for _, t := range r.Terms {
			v := t.Coef
			if !v.IsInt() {
				allInt = false
				break
			}
			g.GCD(nil, nil, g, new(big.Int).Abs(v.Num()))
		}
		if !allInt || g.Sign() == 0 {
			continue
		}
		rem := new(big.Int).Mod(new(big.Int).Abs(r.RHS.Num()), g)
		if rem.Sign() != 0 {
			return true
		}
	}
	return false
}

func ratFloor(v *big.Rat) *big.Int {
	out := new(big.Int).Quo(v.Num(), v.Denom())
	// big.Int.Quo truncates toward zero; nonnegative values are fine and
	// our variables are nonnegative, but guard negatives anyway.
	if v.Sign() < 0 && !v.IsInt() {
		out.Sub(out, big.NewInt(1))
	}
	return out
}
