package xic

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/doccheck"
	"xic/internal/xmltree"
)

// Schema is the compiled form of a DTD alone — the heavy, constraint-free
// half of the two-stage API. In the paper's reduction the cardinality
// system Ψ(D) is determined by the DTD by itself (Section 4.1): constraint
// sets only append rows on top of it. CompileDTD therefore front-loads all
// per-DTD work — DTD validation, Section 4.1 simplification, the
// presolve-ready Ψ_{D_N} encoding template, and the conformance automata —
// and Schema.Bind attaches a constraint set for a small fraction of that
// cost, returning a full Spec.
//
// A Schema is immutable and safe for concurrent use: any number of
// goroutines may Bind against one Schema simultaneously, and every Spec
// bound from it shares the compiled engine without copying it. This is the
// serving shape for interactive workloads — constraint authoring,
// implication sweeps over one schema, per-tenant constraint sets on a
// shared DTD — where the schema is the stable, pre-analyzed artifact and
// constraint sets come and go.
//
// Repeated implication queries against one Schema are memoized: Spec.Implies
// consults a schema-wide cache keyed by the bound constraint set's
// fingerprint, the effective options and the queried constraint, so sweeps
// that revisit (Σ, φ) pairs are answered by lookup instead of a coNP
// refutation.
//
// xic:frozen
type Schema struct {
	d         *DTD
	eng       *core.Engine
	validator *xmltree.Validator
	fp        func() string // canonical DTD hash, computed at most once
	memo      *implMemo
}

// CompileDTD compiles a DTD into a Schema, eagerly paying every per-DTD
// cost: validation, Section 4.1 simplification, the cardinality-encoding
// template Ψ_{D_N}, and the content-model automata used by Validate and
// ValidateStream. Errors surface as *SpecError with stage "dtd" or
// "encode". The returned Schema serves any number of Bind calls
// concurrently.
func CompileDTD(d *DTD) (*Schema, error) {
	if d == nil {
		return nil, &SpecError{Stage: "dtd", Err: errNilDTD}
	}
	eng, err := core.NewEngine(d)
	if err != nil {
		return nil, &SpecError{Stage: "dtd", Err: err}
	}
	if err := eng.Precompile(); err != nil {
		return nil, &SpecError{Stage: "encode", Err: err}
	}
	validator := xmltree.NewValidator(d)
	validator.CompileAll() // keep automaton construction off the serving path
	return &Schema{
		d:         d,
		eng:       eng,
		validator: validator,
		fp:        sync.OnceValue(func() string { return FingerprintDTD(d.String()) }),
		memo:      newImplMemo(implMemoCap),
	}, nil
}

// CompileDTDString is CompileDTD over DTD source text. Syntax errors
// surface as *ParseError with line/offset positions; semantic errors the
// parser detects surface as *SpecError with stage "dtd", exactly as if
// CompileDTD itself had rejected them.
func CompileDTDString(dtdSrc string) (*Schema, error) {
	d, err := ParseDTD(dtdSrc)
	if err != nil {
		return nil, asStageError(err, "dtd")
	}
	return CompileDTD(d)
}

// DTD returns the compiled DTD.
func (sch *Schema) DTD() *DTD { return sch.d }

// Fingerprint returns the DTD-only fingerprint of the Schema: the
// FingerprintDTD hash of the DTD's canonical serialization. Unlike the
// source-keyed fingerprints used by serving caches, it is formatting
// independent — two textual spellings of one DTD share it.
func (sch *Schema) Fingerprint() string { return sch.fp() }

// ConsistentDTD reports whether any finite document at all conforms to the
// DTD (Theorem 3.5(1)); linear time.
func (sch *Schema) ConsistentDTD() bool { return sch.d.HasValidTree() }

// Bind attaches a constraint set to the compiled Schema, returning a Spec.
// This is the cheap stage of the two-stage API: it validates and
// classifies the constraints and wires up the streaming checker, while the
// simplified DTD, the encoding template and the conformance automata are
// shared with the Schema rather than rebuilt. Invalid constraints surface
// as a *SpecError with stage "constraints".
//
// Bind is safe to call from any number of goroutines. Each call returns an
// independent Spec with its own solver counters (SolveStats); all Specs
// bound from one Schema share its encoding template and implication cache.
func (sch *Schema) Bind(constraints ...Constraint) (*Spec, error) {
	if err := constraint.ValidateSet(sch.d, constraints); err != nil {
		return nil, &SpecError{Stage: "constraints", Err: err}
	}
	sigma := append([]Constraint(nil), constraints...)
	return &Spec{
		schema: sch,
		d:      sch.d,
		sigma:  sigma,
		class:  constraint.ClassOf(constraints),
		consFP: fingerprintConstraintSet(sigma),

		eng:       sch.eng.NewChecker(),
		validator: sch.validator,
		stream:    doccheck.New(sch.d, sch.validator, sigma),
	}, nil
}

// BindStrings is Bind over constraint source text in the line-oriented
// syntax of ParseConstraints. Syntax errors surface as *ParseError;
// semantic errors as *SpecError with stage "constraints".
func (sch *Schema) BindStrings(constraintsSrc string) (*Spec, error) {
	sigma, err := ParseConstraints(constraintsSrc)
	if err != nil {
		return nil, asStageError(err, "constraints")
	}
	return sch.Bind(sigma...)
}

// ImplCacheStats is a snapshot of a Schema's memoized-implication cache
// counters.
type ImplCacheStats struct {
	// Hits counts Implies calls answered by lookup.
	Hits uint64
	// Misses counts Implies calls that ran the decision procedure.
	Misses uint64
	// Entries is the current number of memoized (Σ, options, φ) verdicts.
	Entries int
}

// ImplCacheStats returns a snapshot of the schema-wide implication cache
// counters, aggregated over every Spec bound from this Schema.
func (sch *Schema) ImplCacheStats() ImplCacheStats { return sch.memo.stats() }

// fingerprintConstraintSet hashes the canonical rendering of a bound
// constraint set, so Specs bound from different spellings of one set (or
// constructed programmatically) still share implication-cache entries.
func fingerprintConstraintSet(sigma []Constraint) string {
	var b strings.Builder
	for _, c := range sigma {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return FingerprintConstraints(b.String())
}

// implMemoCap bounds each Schema's implication cache. Entries hold a
// verdict and at most one witness-sized counterexample tree, so a few
// thousand of them stay well under typical per-schema memory budgets while
// covering realistic implication sweeps (|Σ| candidates × |Σ| queries).
const implMemoCap = 4096

// implMemo is the Schema-wide memoized implication cache: an LRU from
// (bound-set fingerprint, options, φ) to the settled Implication. Only
// successful verdicts are stored — errors (cancellation, solver budget)
// are never cached — and counterexample trees are cloned on every hit so
// callers can mutate what they receive without poisoning the cache.
type implMemo struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*list.Element
	order *list.List // front = most recently used; values are *implMemoEntry
	hits  uint64
	miss  uint64
}

type implMemoEntry struct {
	key            string
	implied        bool
	counterexample *Tree
}

func newImplMemo(capacity int) *implMemo {
	return &implMemo{
		cap:   capacity,
		byKey: make(map[string]*list.Element),
		order: list.New(),
	}
}

// get returns a private copy of the memoized implication, if present.
func (m *implMemo) get(key string) (*Implication, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[key]
	if !ok {
		m.miss++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(el)
	e := el.Value.(*implMemoEntry)
	imp := &Implication{Implied: e.implied}
	if e.counterexample != nil {
		imp.Counterexample = e.counterexample.Clone()
	}
	return imp, true
}

// put memoizes a settled implication, cloning the counterexample so later
// caller mutations cannot reach the cache.
func (m *implMemo) put(key string, imp *Implication) {
	e := &implMemoEntry{key: key, implied: imp.Implied}
	if imp.Counterexample != nil {
		e.counterexample = imp.Counterexample.Clone()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		// A concurrent miss settled the same key first; keep the fresher
		// answer and the LRU position.
		el.Value = e
		m.order.MoveToFront(el)
		return
	}
	m.byKey[key] = m.order.PushFront(e)
	for m.order.Len() > m.cap {
		back := m.order.Back()
		m.order.Remove(back)
		delete(m.byKey, back.Value.(*implMemoEntry).key)
	}
}

func (m *implMemo) stats() ImplCacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ImplCacheStats{Hits: m.hits, Misses: m.miss, Entries: m.order.Len()}
}

// optionsKey renders the engine options that affect a memoized answer.
// The solver budget can turn a completed verdict into an error (never
// cached), and the options also bound witness shape, so the whole struct
// participates in the key.
func optionsKey(opt *core.Options) string {
	return fmt.Sprintf("%+v", *opt)
}
