package xic

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/doccheck"
	"xic/internal/docsession"
	"xic/internal/ilp"
	"xic/internal/xmltree"
)

// Spec is a compiled XML specification: a DTD together with a set of
// integrity constraints, with all per-DTD work done once at Compile time —
// DTD validation, Section 4.1 simplification, the cardinality-encoding
// template Ψ_{D_N}, constraint validation and classification, and the
// conformance automata. This is the engine for the paper's fixed-DTD
// setting (Corollaries 4.11 and 5.5), where one schema serves many
// consistency, implication and validation requests and each request is
// polynomial once the per-DTD work is amortised.
//
// A Spec is immutable and safe for concurrent use: methods never mutate
// shared state, so any number of goroutines may share one Spec. Decision
// methods take a context.Context that is checked inside the ILP
// branch-and-bound search and the witness builder — cancelling it aborts
// even an adversarial NP instance promptly with an error matching
// ErrCanceled.
//
// xic:frozen
type Spec struct {
	schema *Schema
	d      *DTD
	sigma  []Constraint
	class  Class
	consFP string // fingerprint of the canonical bound set; implication-cache key part

	eng       *core.Checker
	validator *xmltree.Validator
	stream    *doccheck.Checker

	opt SolveOptions
}

// Compile builds a Spec from a DTD and a constraint set. It is the
// composition of the two stages of the API — CompileDTD then Schema.Bind —
// and remains the simple path when one DTD carries one constraint set. It
// eagerly validates the DTD, simplifies it, builds the cardinality-encoding
// template, validates every constraint against the DTD and classifies the
// set, so that compile errors surface here — as a *SpecError — rather
// than on the serving path. When many constraint sets share one DTD,
// compile the Schema once and Bind each set instead: Bind skips all per-DTD
// work.
//
// Any well-formed constraint set compiles, including the multi-attribute
// classes whose static consistency is undecidable (Theorem 3.1): those
// Specs still serve Validate, while Consistent reports ErrUndecidable.
func Compile(d *DTD, constraints ...Constraint) (*Spec, error) {
	sch, err := CompileDTD(d)
	if err != nil {
		return nil, err
	}
	return sch.Bind(constraints...)
}

// CompileStrings is Compile over textual inputs: a DTD in XML DTD syntax
// and a constraint set in the line-oriented syntax of ParseConstraints —
// the composition of CompileDTDString and Schema.BindStrings.
// Syntax errors surface as *ParseError with line/offset positions; semantic
// errors the parsers detect (duplicate declarations, a name used as both
// element type and attribute) surface as *SpecError naming the compile
// stage, exactly as if Compile itself had rejected them.
func CompileStrings(dtdSrc, constraintsSrc string) (*Spec, error) {
	sch, err := CompileDTDString(dtdSrc)
	if err != nil {
		return nil, err
	}
	return sch.BindStrings(constraintsSrc)
}

// asStageError leaves structured taxonomy errors untouched and wraps
// anything else as a *SpecError for the given compile stage.
func asStageError(err error, stage string) error {
	var pe *ParseError
	var se *SpecError
	if errors.As(err, &pe) || errors.As(err, &se) {
		return err
	}
	return &SpecError{Stage: stage, Err: err}
}

// FingerprintDTD returns the content hash identifying a DTD source text:
// the hex SHA-256 of the source under a section-specific domain prefix, so
// a DTD and a constraint set with identical bytes never collide. This is
// the schema-tier cache key of the two-level registry behind cmd/xicd:
// equal sources always hash equal, so byte-identical resubmissions reuse
// the compiled Schema without re-running CompileDTD. It deliberately
// hashes sources, not parsed structure: two formattings of one DTD get
// distinct fingerprints, which only costs a duplicate cache entry (use
// Schema.Fingerprint for the canonical, formatting-independent hash).
func FingerprintDTD(dtdSrc string) string {
	return sectionHash("dtd", dtdSrc)
}

// FingerprintConstraints returns the content hash identifying a constraint
// source text, under a domain prefix distinct from FingerprintDTD's.
func FingerprintConstraints(constraintsSrc string) string {
	return sectionHash("xic", constraintsSrc)
}

// Fingerprint returns the content hash identifying the compiled form of a
// full textual specification: the concatenation of FingerprintDTD over the
// DTD source and FingerprintConstraints over the constraint source. The
// two-level registry behind cmd/xicd keys its spec tier by this fused form,
// and the embedded DTD half doubles as the schema-tier key, so a cache can
// recover the schema identity of any spec id by splitting it in the middle.
func Fingerprint(dtdSrc, constraintsSrc string) string {
	return FingerprintDTD(dtdSrc) + FingerprintConstraints(constraintsSrc)
}

// sectionHash hashes one fingerprint section under a domain prefix. The
// prefix (with a NUL separator, which neither domain contains) keeps the
// DTD and constraint hash spaces disjoint.
func sectionHash(domain, src string) string {
	h := sha256.New()
	io.WriteString(h, domain)
	h.Write([]byte{0})
	io.WriteString(h, src)
	return hex.EncodeToString(h.Sum(nil))
}

// errNilDTD keeps the nil-DTD compile error a stable value.
var errNilDTD = &nilDTDError{}

type nilDTDError struct{}

func (*nilDTDError) Error() string { return "nil DTD" }

// DTD returns the compiled DTD.
func (s *Spec) DTD() *DTD { return s.d }

// Schema returns the compiled Schema the Spec was bound from. Specs built
// by Compile own a private Schema; Specs bound from a shared Schema return
// it, so callers can Bind further constraint sets against the same
// compiled engine.
func (s *Spec) Schema() *Schema { return s.schema }

// Constraints returns a copy of the compiled constraint set.
func (s *Spec) Constraints() []Constraint {
	return append([]Constraint(nil), s.sigma...)
}

// Class returns the smallest of the paper's constraint classes containing
// the compiled set.
func (s *Spec) Class() Class { return s.class }

// SolveOptions returns the Spec's effective solver configuration. Zero
// fields mean their documented defaults (MaxNodes 0 = DefaultMaxNodes,
// SolverParallelism 0 = one search worker per check, GOMAXPROCS batch
// workers).
func (s *Spec) SolveOptions() SolveOptions { return s.opt }

// WithSolveOptions returns a Spec sharing this one's compiled state with
// the given tweaks applied on top of its current SolveOptions. The
// receiver is unchanged, so distinct callers can hold differently-tuned
// views of one compiled engine:
//
//	fast := spec.WithSolveOptions(xic.WithSkipWitness(), xic.WithSolverParallelism(8))
//
// For a single differently-tuned call, use ConsistentOpts or ImpliesOpts
// instead.
func (s *Spec) WithSolveOptions(opts ...SolveOption) *Spec {
	out := *s
	for _, apply := range opts {
		if apply != nil {
			apply(&out.opt)
		}
	}
	if out.opt.SolverParallelism < 1 {
		out.opt.SolverParallelism = 0
	}
	return &out
}

// engineOptions builds the core.Options handed to the engine from the
// Spec's SolveOptions, so one knob (SolverParallelism) drives both the
// batch pool and the branch-and-bound workers.
func (s *Spec) engineOptions() core.Options {
	return core.Options{
		Solver: ilp.Options{
			MaxNodes:           s.opt.MaxNodes,
			Parallelism:        s.opt.SolverParallelism,
			DisablePresolve:    s.opt.DisablePresolve,
			DisableFastTableau: s.opt.DisableFastTableau,
		},
		SkipWitness: s.opt.SkipWitness,
	}
}

// ConsistentDTD reports whether any finite document at all conforms to the
// DTD (Theorem 3.5(1)); linear time, constraint set ignored.
func (s *Spec) ConsistentDTD() bool { return s.d.HasValidTree() }

// SolveStats returns a snapshot of the Spec's cumulative solver counters:
// how many ILP-oracle calls its checks have made, how many were answered
// by the presolve layer alone or by the no-branching fast path, and how
// much presolve shrank the systems that did reach branch-and-bound. The
// counters are shared across WithSolveOptions views of one compiled
// engine and are safe to read concurrently; cmd/xicd totals them over its
// spec registry, evicted Specs included, under /debug/vars.
func (s *Spec) SolveStats() SolveStats { return s.eng.SolveStats() }

// Consistent decides whether some finite document conforms to the DTD and
// satisfies every compiled constraint, returning a verified witness
// document on success (unless SolveOptions.SkipWitness is set). Keys-only sets
// decide in linear time; unary sets with foreign keys, inclusions or
// negations pay the NP price of Theorems 4.7/5.1, bounded by the context:
// cancellation returns an error matching ErrCanceled.
func (s *Spec) Consistent(ctx context.Context) (*Result, error) {
	co := s.engineOptions()
	res, err := s.eng.ConsistentContext(ctx, s.sigma, &co)
	return res, wrapSolveError(err)
}

// ConsistentOpts is Consistent with per-call option tweaks layered on top
// of the Spec's SolveOptions — the one-shot form of WithSolveOptions:
//
//	res, err := spec.ConsistentOpts(ctx, xic.WithMaxNodes(100), xic.WithSkipWitness())
//
// The Spec itself is unchanged.
func (s *Spec) ConsistentOpts(ctx context.Context, opts ...SolveOption) (*Result, error) {
	return s.WithSolveOptions(opts...).Consistent(ctx)
}

// ConsistentWith is Consistent for the compiled set extended with extra
// constraints. The extension is per-call: the Spec itself is unchanged,
// and the compiled encoding template is still reused, which is the
// intended way to probe many candidate sets against one schema.
func (s *Spec) ConsistentWith(ctx context.Context, extra ...Constraint) (*Result, error) {
	co := s.engineOptions()
	res, err := s.eng.ConsistentContext(ctx, s.join(extra), &co)
	return res, wrapSolveError(err)
}

// Implies decides whether every document conforming to the DTD and
// satisfying the compiled set also satisfies phi, returning a
// counterexample document when not. Unary implication is coNP
// (Theorems 4.10/5.4); keys-only implication is linear. Cancellation
// returns an error matching ErrCanceled.
//
// Settled verdicts are memoized on the Schema, keyed by the bound set's
// fingerprint, the effective SolveOptions and phi, so repeated implication
// queries against a stable schema — from this Spec or any other Spec
// binding an identical set — are pure lookups. Errors are never cached,
// and memoized counterexamples are private copies.
func (s *Spec) Implies(ctx context.Context, phi Constraint) (*Implication, error) {
	co := s.engineOptions()
	key := s.consFP + "\x00" + optionsKey(&co) + "\x00" + phi.String()
	if imp, ok := s.schema.memo.get(key); ok {
		return imp, nil
	}
	imp, err := s.eng.ImpliesContext(ctx, s.sigma, phi, &co)
	if err != nil {
		return nil, wrapSolveError(err)
	}
	s.schema.memo.put(key, imp)
	return imp, nil
}

// ImpliesOpts is Implies with per-call option tweaks layered on top of the
// Spec's SolveOptions, memoized under the effective options exactly like
// Implies. The Spec itself is unchanged.
func (s *Spec) ImpliesOpts(ctx context.Context, phi Constraint, opts ...SolveOption) (*Implication, error) {
	return s.WithSolveOptions(opts...).Implies(ctx, phi)
}

// ImpliesKey is the linear-time implication test for a key by a keys-only
// compiled set (Theorem 3.5(3)).
func (s *Spec) ImpliesKey(phi Key) (bool, error) {
	ok, err := core.ImpliesKey(s.d, s.sigma, phi)
	if err != nil {
		return false, &SpecError{Stage: "constraints", Err: err}
	}
	return ok, nil
}

// Diagnose explains an inconsistent specification: it reports whether the
// DTD alone is unsatisfiable, and otherwise returns a minimal subset of
// the compiled constraints that is still inconsistent with the DTD
// (removing any one member restores consistency). The |Σ|+1 consistency
// checks of the deletion filter all reuse the compiled encoding.
func (s *Spec) Diagnose(ctx context.Context) (*Diagnosis, error) {
	co := s.engineOptions()
	diag, err := s.eng.DiagnoseContext(ctx, s.sigma, &co)
	return diag, wrapSolveError(err)
}

// Validate checks one concrete document dynamically: it must conform to
// the DTD and satisfy every compiled constraint. This is the validation
// mode the paper contrasts with static consistency checking, and it works
// for every class — including the multi-attribute classes whose static
// problem is undecidable.
//
// The signature mirrors ValidateStream: the context bounds the work, with
// the conformance walk checking it every few thousand nodes and the
// constraint pass checking it between constraints, so cancelling aborts
// validation of even a huge in-memory tree with an error matching both
// ErrCanceled and the context's own error. A nil context means no bound.
func (s *Spec) Validate(ctx context.Context, doc *Tree) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.validator.ValidateContext(ctx, doc); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		//xic:ignore errtaxonomy conformance failures are the documented stringly result of dynamic validation
		return err
	}
	done := ctx.Done()
	for _, c := range s.sigma {
		select {
		case <-done:
			return fmt.Errorf("%w: validation aborted: %w", ErrCanceled, ctx.Err())
		default:
		}
		if !constraint.Satisfied(doc, c) {
			return &ViolationError{Violated: c}
		}
	}
	return nil
}

// ValidateStream checks one document in a single SAX-style pass over r:
// DTD conformance and every compiled constraint — keys, foreign keys,
// inclusions and their negations — are verified without materializing the
// document as a tree, so memory is bounded by the open-element stack and
// the constraint hash indexes rather than the document size. This is the
// large-document serving mode of the fixed-DTD setting (Corollaries 4.11
// and 5.5): foreign keys may reference elements appearing later in the
// stream, because reference sets are resolved at end-of-document.
//
// The verdict matches Validate on ParseDocument of the same bytes: a
// well-formed document yields a Report (whose OK answers the validation
// question and whose Violations carry element paths, lines and byte
// offsets), while unparseable documents — syntax errors, multiple roots,
// colliding attribute names — yield a *ParseError. Cancelling the context
// aborts the pass with an error matching ErrCanceled. A Spec is immutable,
// so any number of ValidateStream calls may run concurrently.
func (s *Spec) ValidateStream(ctx context.Context, r io.Reader) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep, err := s.stream.Run(ctx, r)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		return nil, wrapDocumentError(err)
	}
	return rep, nil
}

// OpenSession ingests one document from r — a single streaming validation
// pass — and returns a live editing session over it: the parsed tree, the
// per-constraint hash indexes and, for each parent with more than a few
// children, the children's slots by label and the content model's
// position set after each child are retained, so subsequent Session.Apply
// calls re-check each edit against only the touched scopes, in O(edit)
// rather than O(document) or O(siblings). Every edit is transactional —
// accepted in full or rejected with a delta report and a minimal repair
// hint — so the session's document is valid at all times.
//
// Invalid documents yield an *InvalidDocumentError carrying the full
// report; unparseable ones a *ParseError. The context bounds the
// ingestion pass only; the returned Session is independent of it.
func (s *Spec) OpenSession(ctx context.Context, r io.Reader) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sess, err := docsession.Open(ctx, s.stream, s.validator, r)
	if err != nil {
		var ide *docsession.InvalidDocumentError
		if errors.As(err, &ide) {
			return nil, ide
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		return nil, wrapDocumentError(err)
	}
	return sess, nil
}

// join returns the compiled set extended with extra constraints, copying
// only when needed.
func (s *Spec) join(extra []Constraint) []Constraint {
	if len(extra) == 0 {
		return s.sigma
	}
	out := make([]Constraint, 0, len(s.sigma)+len(extra))
	return append(append(out, s.sigma...), extra...)
}

// BatchResult is one outcome of Spec.ConsistentAll: exactly one of Result
// and Err is non-nil.
type BatchResult struct {
	Result *Result
	Err    error
}

// BatchImplication is one outcome of Spec.ImpliesAll: exactly one of
// Implication and Err is non-nil.
type BatchImplication struct {
	Implication *Implication
	Err         error
}

// ConsistentAll checks many constraint-set extensions against the compiled
// specification: element i of the answer is ConsistentWith(ctx, sets[i]...).
// The checks run on a bounded worker pool (see WithSolverParallelism) and
// all share the compiled encoding template, so throughput scales with
// cores instead of re-paying the per-DTD work per set. Cancelling the context
// makes remaining entries fail with errors matching ErrCanceled.
func (s *Spec) ConsistentAll(ctx context.Context, sets [][]Constraint) []BatchResult {
	out := make([]BatchResult, len(sets))
	s.forEach(len(sets), func(i int) {
		res, err := s.ConsistentWith(ctx, sets[i]...)
		out[i] = BatchResult{Result: res, Err: err}
	})
	return out
}

// ImpliesAll decides implication of many conclusions by the compiled set:
// element i of the answer is Implies(ctx, phis[i]). Scheduling and
// cancellation behave as in ConsistentAll.
func (s *Spec) ImpliesAll(ctx context.Context, phis []Constraint) []BatchImplication {
	out := make([]BatchImplication, len(phis))
	s.forEach(len(phis), func(i int) {
		imp, err := s.Implies(ctx, phis[i])
		out[i] = BatchImplication{Implication: imp, Err: err}
	})
	return out
}

// forEach runs do(0..n-1) on at most s.parallelism() goroutines.
func (s *Spec) forEach(n int, do func(i int)) {
	workers := s.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

func (s *Spec) parallelism() int {
	if s.opt.SolverParallelism > 0 {
		return s.opt.SolverParallelism
	}
	return runtime.GOMAXPROCS(0)
}
