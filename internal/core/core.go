// Package core implements the decision procedures of Fan & Libkin: the
// consistency problem (is there a finite XML tree conforming to the DTD and
// satisfying the constraints?) and the implication problem, for every class
// the paper shows decidable:
//
//   - DTDs alone and keys-only sets: linear-time procedures on the grammar
//     (Theorem 3.5, Lemmas 3.6–3.7);
//   - unary keys, foreign keys and inclusion constraints, with negated
//     keys: NP, via the cardinality encoding Ψ(D,Σ) and linear integer
//     programming (Theorem 4.1, Corollaries 4.2 and 4.9);
//   - the full class with negated inclusions: NP, via the intersection-cell
//     extension (Theorem 5.1);
//   - implication of unary constraints: coNP, by refuting Σ ∧ ¬φ
//     (Theorems 4.10 and 5.4).
//
// Multi-attribute sets mixing keys with foreign keys are undecidable
// (Theorem 3.1); ConsistentContext reports ErrUndecidable for them. For a
// fixed DTD the number of encoding variables is a constant, so consistency
// and implication run in polynomial time in |Σ| (Corollaries 4.11 and
// 5.5). Every check runs in that setting, in two stages: NewEngine
// validates the DTD, and the Engine simplifies it and builds the
// cardinality-encoding template Ψ_{D_N} once; each Checker bound to it
// (Engine.NewChecker) serves any number of checks — concurrently — through
// its ConsistentContext, ImpliesContext and DiagnoseContext methods,
// cloning the template per request while keeping its own solver counters.
// All lazy state is guarded by sync.Once; Engines and Checkers are safe
// for use from multiple goroutines.
//
// Every NP-class procedure takes a context.Context, plumbed into the ILP
// branch-and-bound search and the witness construction, so deadlines and
// cancellation abort the exponential search promptly. Cancelled checks
// return an error matching both ErrCanceled and the context's own error
// under errors.Is.
//
// Positive consistency results carry a witness document, built by package
// witness and independently re-validated against the DTD and every
// constraint; negative implication results carry a counterexample tree.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/witness"
	"xic/internal/xmltree"
)

// ErrUndecidable is reported for constraint classes whose consistency the
// paper proves undecidable (multi-attribute keys mixed with foreign keys or
// inclusion constraints, Theorem 3.1).
var ErrUndecidable = errors.New(
	"core: consistency of multi-attribute keys and foreign keys is undecidable (Theorem 3.1); " +
		"only keys-only multi-attribute sets and unary constraint sets are decidable")

// ErrCanceled is reported when a check is abandoned because its context was
// cancelled or its deadline expired. Errors returned by the deciders match
// both ErrCanceled and the underlying context error (context.Canceled or
// context.DeadlineExceeded) under errors.Is.
var ErrCanceled = errors.New("core: check canceled")

// wrapCanceled translates context-cancellation errors bubbling up from the
// solver or the witness builder into the ErrCanceled taxonomy, leaving all
// other errors untouched.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// orBackground lets callers pass a nil context, which never cancels.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Options configures the NP procedures.
type Options struct {
	// Solver bounds the branch-and-bound search.
	Solver ilp.Options
	// Witness bounds witness construction.
	Witness witness.Limits
	// SkipWitness skips witness construction, returning the bare decision.
	SkipWitness bool
}

func (o *Options) solver() *ilp.Options {
	if o == nil {
		return nil
	}
	return &o.Solver
}

func (o *Options) witnessLimits() *witness.Limits {
	if o == nil {
		return nil
	}
	return &o.Witness
}

func (o *Options) skipWitness() bool { return o != nil && o.SkipWitness }

// Result is the outcome of a consistency check.
type Result struct {
	Consistent bool
	// Witness is a document conforming to the DTD and satisfying the
	// constraints; nil when inconsistent or when skipped via Options.
	Witness *xmltree.Tree
	// Class is the constraint class the set was dispatched to.
	Class constraint.Class
}

// ConsistentDTD reports whether any finite XML tree conforms to the DTD
// (Theorem 3.5(1)); linear time.
func ConsistentDTD(d *dtd.DTD) bool {
	return d.HasValidTree()
}

// Engine is the compiled per-DTD artifact of the two-stage API: DTD
// validation, Section 4.1 simplification and the Ψ_{D_N} encoding template,
// each built at most once (guarded by sync.Once) and never mutated
// afterwards. The cardinality system Ψ(D) is determined by the DTD alone —
// constraint sets only append rows on top of it — so one Engine is the
// stable, pre-analyzed artifact that any number of Checkers bind against:
// NewChecker hands out views sharing the compiled state with independent
// statistics, and every request clones the encoding template, so an Engine
// serves any number of goroutines concurrently.
//
// xic:frozen
type Engine struct {
	d *dtd.DTD

	simpOnce sync.Once
	simp     *dtd.Simplified

	encOnce sync.Once
	encBase *cardinality.Encoding
	encErr  error
}

// NewEngine validates the DTD once; simplification and the encoding
// template are built lazily on the first NP-class check (or eagerly via
// Precompile).
func NewEngine(d *dtd.DTD) (*Engine, error) {
	if err := d.Check(); err != nil {
		return nil, err
	}
	return &Engine{d: d}, nil
}

// Precompile forces the lazy per-DTD work — simplification and the
// cardinality-encoding template — so that Checkers bound to this engine pay
// only per-request cost. It is idempotent and safe to call concurrently.
func (e *Engine) Precompile() error {
	_, err := e.template()
	return err
}

// NewChecker returns a Checker bound to the compiled engine: it shares the
// simplified DTD and the encoding template (never rebuilding them) but
// keeps its own solver counters, so distinct bindings of one schema report
// independent statistics.
func (e *Engine) NewChecker() *Checker {
	return &Checker{eng: e}
}

// simplified returns the Section 4.1 simplification, computing it once.
func (e *Engine) simplified() *dtd.Simplified {
	e.simpOnce.Do(func() { e.simp = dtd.Simplify(e.d) })
	return e.simp
}

// template returns a private clone of the compiled Ψ_{D_N} encoding,
// building the shared base on first use.
func (e *Engine) template() (*cardinality.Encoding, error) {
	e.encOnce.Do(func() {
		e.encBase, e.encErr = cardinality.EncodeDTD(e.simplified())
	})
	if e.encErr != nil {
		return nil, e.encErr
	}
	return e.encBase.Clone(), nil
}

// Checker is the compiled consistency engine for the fixed-DTD setting of
// Corollaries 4.11 and 5.5: it amortises DTD validation, Section 4.1
// simplification and the Ψ_{D_N} encoding template across many consistency
// and implication checks against the same DTD. The amortised state lives in
// an Engine, which several Checkers may share (Engine.NewChecker); each
// request clones the encoding template, so a single Checker serves any
// number of goroutines concurrently.
type Checker struct {
	eng *Engine

	stats solveCounters
}

// solveCounters aggregates ILP-oracle outcomes across every check the
// Checker serves; atomics keep recording free of the request path's
// concurrency.
type solveCounters struct {
	solves          atomic.Uint64
	presolveDecided atomic.Uint64
	presolveBailed  atomic.Uint64
	fastPath        atomic.Uint64
	nodes           atomic.Uint64
	pivots          atomic.Uint64
	fastPivots      atomic.Uint64
	exactFallbacks  atomic.Uint64
	steals          atomic.Uint64
	presolveRows    atomic.Uint64
	presolveRowsOut atomic.Uint64
	varsFixed       atomic.Uint64
	impsResolved    atomic.Uint64
}

// SolveStats is a point-in-time snapshot of the checker's cumulative
// ILP-oracle counters: how many solver calls were answered by presolve
// alone, how many by the no-branching fast path, and how much the presolve
// layer shrank the systems that did reach the search. Serving layers (the
// xic.Spec engine and cmd/xicd's expvar surface) expose these directly.
type SolveStats struct {
	// Solves counts ILP-oracle invocations.
	Solves uint64
	// PresolveDecided counts solves answered by presolve with no LP at all.
	PresolveDecided uint64
	// PresolveBailed counts solves whose presolve arithmetic left int64:
	// the search ran on the unreduced system.
	PresolveBailed uint64
	// FastPath counts solves answered by the root LP relaxation alone (no
	// conditional constraints survived presolve, no branching happened).
	FastPath uint64
	// Nodes totals branch-and-bound nodes (LP relaxations solved).
	Nodes uint64
	// Pivots totals simplex pivots across both kernels (int64 fast pivots,
	// including wasted fallback attempts, plus exact big.Rat pivots).
	Pivots uint64
	// FastPivots is the subset of Pivots performed on the overflow-checked
	// int64 fast tableau; Pivots − FastPivots is the exact-kernel share.
	FastPivots uint64
	// ExactFallbacks counts LP solves whose fast tableau overflowed and
	// were redone on the exact big.Rat kernel.
	ExactFallbacks uint64
	// Steals counts subproblems branch-and-bound workers took from a
	// sibling's deque; 0 with one worker.
	Steals uint64
	// PresolveRows / PresolveRowsOut total constraint rows entering and
	// leaving presolve; their gap is how much the systems shrank.
	PresolveRows    uint64
	PresolveRowsOut uint64
	// VarsFixed totals variables presolve fixed and substituted out.
	VarsFixed uint64
	// ImplicationsResolved totals conditional constraints presolve resolved
	// before the search had to case-split on them.
	ImplicationsResolved uint64
}

// SolveStats returns a snapshot of the cumulative solver counters.
func (c *Checker) SolveStats() SolveStats {
	return SolveStats{
		Solves:               c.stats.solves.Load(),
		PresolveDecided:      c.stats.presolveDecided.Load(),
		PresolveBailed:       c.stats.presolveBailed.Load(),
		FastPath:             c.stats.fastPath.Load(),
		Nodes:                c.stats.nodes.Load(),
		Pivots:               c.stats.pivots.Load(),
		FastPivots:           c.stats.fastPivots.Load(),
		ExactFallbacks:       c.stats.exactFallbacks.Load(),
		Steals:               c.stats.steals.Load(),
		PresolveRows:         c.stats.presolveRows.Load(),
		PresolveRowsOut:      c.stats.presolveRowsOut.Load(),
		VarsFixed:            c.stats.varsFixed.Load(),
		ImplicationsResolved: c.stats.impsResolved.Load(),
	}
}

// recordSolve folds one ILP result into the counters. The solver returns a
// non-nil Result on every path, including errors, so aborted searches
// still account their nodes.
func (c *Checker) recordSolve(res *ilp.Result) {
	if res == nil {
		return
	}
	c.stats.solves.Add(1)
	if res.Stats.PresolveDecided {
		c.stats.presolveDecided.Add(1)
	}
	if res.Stats.FastPath {
		c.stats.fastPath.Add(1)
	}
	c.stats.nodes.Add(uint64(res.Nodes))
	c.stats.pivots.Add(uint64(res.Stats.Pivots))
	c.stats.fastPivots.Add(uint64(res.Stats.FastPivots))
	c.stats.exactFallbacks.Add(uint64(res.Stats.ExactFallbacks))
	c.stats.steals.Add(uint64(res.Stats.Steals))
	p := res.Stats.Presolve
	if p.Bailed {
		c.stats.presolveBailed.Add(1)
	}
	c.stats.presolveRows.Add(uint64(p.Rows))
	c.stats.presolveRowsOut.Add(uint64(p.RowsOut))
	c.stats.varsFixed.Add(uint64(p.VarsFixed))
	if p.Implications >= p.ImplicationsOut {
		c.stats.impsResolved.Add(uint64(p.Implications - p.ImplicationsOut))
	}
}

// ConsistentContext decides the consistency problem for the fixed DTD and
// a constraint set, dispatching on the constraint class:
//
//   - keys only (C_K, multi-attribute allowed): linear-time decision
//     (Theorem 3.5(2));
//   - unary classes up to C^Unary_{K¬,IC¬}: the NP procedures of
//     Sections 4–5;
//   - multi-attribute sets with foreign keys or inclusions: ErrUndecidable.
//
// Cancellation aborts the NP search and witness construction with an
// error matching ErrCanceled. A nil context never cancels.
func (c *Checker) ConsistentContext(ctx context.Context, set []constraint.Constraint, opt *Options) (*Result, error) {
	return c.consistentChecked(orBackground(ctx), set, opt)
}

func (c *Checker) consistentChecked(ctx context.Context, set []constraint.Constraint, opt *Options) (*Result, error) {
	if err := wrapCanceled(ctx.Err()); err != nil {
		return nil, err
	}
	if err := constraint.ValidateSet(c.eng.d, set); err != nil {
		return nil, err
	}
	class := constraint.ClassOf(set)
	switch class {
	case constraint.ClassK:
		return c.consistentKeysOnly(ctx, set, opt)
	case constraint.ClassKFK, constraint.ClassOther:
		return nil, fmt.Errorf("%w (set is in %s)", ErrUndecidable, class)
	}
	enc, err := c.eng.template()
	if err != nil {
		return nil, err
	}
	if _, err := enc.AddFull(set); err != nil {
		return nil, err
	}
	sol, err := ilp.Solve(ctx, enc.Sys, opt.solver())
	c.recordSolve(sol)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	res := &Result{Class: class, Consistent: sol.Feasible}
	if !sol.Feasible || opt.skipWitness() {
		return res, nil
	}
	tree, err := witness.Build(ctx, enc, set, sol.Values, opt.witnessLimits())
	if err != nil {
		return nil, wrapCanceled(err)
	}
	res.Witness = tree
	return res, nil
}

// consistentKeysOnly is the linear-time path of Theorem 3.5(2): a set of
// keys is consistent iff the DTD has any valid tree, since attribute values
// can always be chosen pairwise distinct.
func (c *Checker) consistentKeysOnly(ctx context.Context, set []constraint.Constraint, opt *Options) (*Result, error) {
	res := &Result{Class: constraint.ClassK, Consistent: c.eng.d.HasValidTree()}
	if !res.Consistent || opt.skipWitness() {
		return res, nil
	}
	tree, err := c.buildSkeleton(ctx, opt)
	if err != nil {
		return nil, err
	}
	distinctValues(tree)
	if ok, violated := constraint.SatisfiedAll(tree, set); !ok {
		return nil, fmt.Errorf("core: internal error: distinct-valued witness violates %s", violated)
	}
	res.Witness = tree
	return res, nil
}

// buildSkeleton constructs some tree conforming to the DTD via the
// unconstrained encoding.
func (c *Checker) buildSkeleton(ctx context.Context, opt *Options) (*xmltree.Tree, error) {
	enc, err := c.eng.template()
	if err != nil {
		return nil, err
	}
	if err := enc.AddUnary(nil); err != nil {
		return nil, err
	}
	sol, err := ilp.Solve(ctx, enc.Sys, opt.solver())
	c.recordSolve(sol)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	if !sol.Feasible {
		return nil, fmt.Errorf("core: internal error: DTD with valid trees has infeasible Ψ_D")
	}
	tree, err := witness.Build(ctx, enc, nil, sol.Values, opt.witnessLimits())
	return tree, wrapCanceled(err)
}

// distinctValues overwrites every attribute value in the tree with a
// globally unique value.
func distinctValues(tree *xmltree.Tree) {
	next := 0
	tree.Walk(func(n *xmltree.Node) bool {
		for _, a := range n.AttrNames() {
			n.SetAttr(a, fmt.Sprintf("u%d", next))
			next++
		}
		return true
	})
}
