package xic

import "xic/internal/ilp"

// DefaultMaxNodes is the branch-and-bound node budget used when
// SolveOptions.MaxNodes is zero.
const DefaultMaxNodes = ilp.DefaultMaxNodes

// SolveOptions is the one knob set for the NP decision procedures. A zero
// SolveOptions is the serving default: presolve on, int64 fast tableau on,
// one branch-and-bound worker, witnesses built, DefaultMaxNodes budget. Values are applied to a Spec with Spec.WithSolveOptions or
// per call with Spec.ConsistentOpts / Spec.ImpliesOpts, normally through
// the functional constructors (WithMaxNodes, WithSolverParallelism,
// WithoutPresolve, WithoutFastTableau, WithSkipWitness).
type SolveOptions struct {
	// MaxNodes bounds the number of branch-and-bound nodes (LP solves)
	// per check. Zero means DefaultMaxNodes; negative values are rejected
	// with an error matching ErrInvalidOptions at check time.
	MaxNodes int

	// SolverParallelism is the solver-side concurrency knob. It bounds
	// both the branch-and-bound worker goroutines inside one check and the
	// worker pool of the batch entry points (ConsistentAll, ImpliesAll).
	// Zero means automatic: one search worker per check, GOMAXPROCS
	// workers for batches. Verdicts are identical at any parallelism —
	// only the witness document and the node count may differ, because
	// several workers explore the search tree in another order than one.
	SolverParallelism int

	// DisablePresolve skips the presolve layer (bound propagation, GCD
	// tightening, variable fixing, implication resolution) and runs
	// branch-and-bound on the raw system. For ablation benchmarks and
	// cross-validation only.
	DisablePresolve bool

	// DisableFastTableau runs every LP on big.Rat, skipping the simplex
	// kernel's overflow-checked int64 instance. For ablation benchmarks
	// and cross-validation only.
	DisableFastTableau bool

	// SkipWitness returns bare verdicts without constructing witness or
	// counterexample documents.
	SkipWitness bool
}

// SolveOption is one functional tweak to a SolveOptions value.
type SolveOption func(*SolveOptions)

// WithMaxNodes bounds the branch-and-bound search to n nodes per check.
// n = 0 restores DefaultMaxNodes.
func WithMaxNodes(n int) SolveOption {
	return func(o *SolveOptions) { o.MaxNodes = n }
}

// WithSolverParallelism runs the branch-and-bound search and the batch
// entry points on at most n goroutines. n < 1 restores the automatic
// default (one search worker, GOMAXPROCS batch workers).
func WithSolverParallelism(n int) SolveOption {
	return func(o *SolveOptions) {
		if n < 1 {
			n = 0
		}
		o.SolverParallelism = n
	}
}

// WithoutPresolve disables the presolve layer (ablation only).
func WithoutPresolve() SolveOption {
	return func(o *SolveOptions) { o.DisablePresolve = true }
}

// WithoutFastTableau runs every LP on big.Rat (ablation only).
func WithoutFastTableau() SolveOption {
	return func(o *SolveOptions) { o.DisableFastTableau = true }
}

// WithSkipWitness returns bare verdicts without witness documents.
func WithSkipWitness() SolveOption {
	return func(o *SolveOptions) { o.SkipWitness = true }
}
