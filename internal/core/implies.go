package core

import (
	"context"
	"fmt"

	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/linear"
	"xic/internal/witness"
	"xic/internal/xmltree"
)

// Implication is the outcome of an implication check (D,Σ) ⊢ φ.
type Implication struct {
	Implied bool
	// Counterexample, when not implied, is a tree conforming to D and
	// satisfying Σ but violating φ; nil when implied or when witness
	// construction was skipped.
	Counterexample *xmltree.Tree
}

// ImpliesContext decides the implication problem (D,Σ) ⊢ φ for the fixed
// DTD: does every tree conforming to D and satisfying Σ also satisfy φ?
//
//   - Σ and φ keys only: linear time (Theorem 3.5(3), Lemma 3.7);
//   - unary Σ and unary φ (key, inclusion or foreign key): coNP, by
//     checking consistency of Σ ∧ ¬φ (Theorems 4.10 and 5.4); a foreign
//     key is implied iff both its key and its inclusion part are;
//   - anything else multi-attribute: ErrUndecidable (Corollary 3.4).
//
// Cancellation aborts the coNP refutation search with an error matching
// ErrCanceled. For a fixed DTD this is Corollary 5.5's PTIME setting.
func (c *Checker) ImpliesContext(ctx context.Context, sigma []constraint.Constraint, phi constraint.Constraint, opt *Options) (*Implication, error) {
	ctx = orBackground(ctx)
	if err := wrapCanceled(ctx.Err()); err != nil {
		return nil, err
	}
	if err := constraint.ValidateSet(c.eng.d, sigma); err != nil {
		return nil, err
	}
	if err := phi.Validate(c.eng.d); err != nil {
		return nil, err
	}
	phiKey, phiIsKey := phi.(constraint.Key)
	if constraint.ClassOf(sigma) == constraint.ClassK && phiIsKey {
		return c.impliesKeyByKeys(ctx, sigma, phiKey, opt)
	}
	if !phi.Unary() {
		return nil, fmt.Errorf("%w (the conclusion %s is multi-attribute)", ErrUndecidable, phi)
	}
	switch x := phi.(type) {
	case constraint.ForeignKey:
		// φ = key ∧ inclusion: implied iff both parts are (Section 2.2).
		keyPart, err := c.ImpliesContext(ctx, sigma, x.Key(), opt)
		if err != nil {
			return nil, err
		}
		if !keyPart.Implied {
			return keyPart, nil
		}
		return c.ImpliesContext(ctx, sigma, x.Inclusion, opt)
	case constraint.Key, constraint.Inclusion:
		negs, err := constraint.Negate(x)
		if err != nil {
			return nil, err
		}
		refuted, err := c.consistentChecked(ctx, append(append([]constraint.Constraint(nil), sigma...), negs...), opt)
		if err != nil {
			return nil, err
		}
		return &Implication{Implied: !refuted.Consistent, Counterexample: refuted.Witness}, nil
	}
	return nil, fmt.Errorf("core: cannot decide implication of %s (only keys, inclusions and foreign keys)", phi)
}

// ImpliesKey is the linear-time implication test for keys by keys
// (Theorem 3.5(3)): (D,Σ) ⊢ τ[X] → τ iff Σ contains a key τ[Y] → τ with
// Y ⊆ X, or no tree valid w.r.t. D has two τ elements (Lemma 3.7).
func ImpliesKey(d *dtd.DTD, sigma []constraint.Constraint, phi constraint.Key) (bool, error) {
	if err := d.Check(); err != nil {
		return false, err
	}
	if err := constraint.ValidateSet(d, sigma); err != nil {
		return false, err
	}
	if err := phi.Validate(d); err != nil {
		return false, err
	}
	if constraint.ClassOf(sigma) != constraint.ClassK {
		return false, fmt.Errorf("core: ImpliesKey requires a keys-only Σ; use Implies for unary classes")
	}
	if subsumesKey(sigma, phi) {
		return true, nil
	}
	return d.MaxOccurrences(phi.Type) < 2, nil
}

// subsumesKey reports whether Σ contains a key of the same type over a
// subset of phi's attributes (making phi a superkey).
func subsumesKey(sigma []constraint.Constraint, phi constraint.Key) bool {
	attrs := map[string]bool{}
	for _, a := range phi.Attrs {
		attrs[a] = true
	}
	for _, k := range constraint.EffectiveKeys(sigma) {
		if k.Type != phi.Type {
			continue
		}
		subset := true
		for _, a := range k.Attrs {
			if !attrs[a] {
				subset = false
				break
			}
		}
		if subset {
			return true
		}
	}
	return false
}

// impliesKeyByKeys is the keys-only path with counterexample construction:
// when not implied, a valid tree with two τ nodes agreeing on X and
// pairwise-distinct values elsewhere refutes φ while satisfying every
// non-subsumed key of Σ (Lemma 3.7's proof).
func (c *Checker) impliesKeyByKeys(ctx context.Context, sigma []constraint.Constraint, phi constraint.Key, opt *Options) (*Implication, error) {
	if subsumesKey(sigma, phi) {
		return &Implication{Implied: true}, nil
	}
	if c.eng.d.MaxOccurrences(phi.Type) < 2 {
		return &Implication{Implied: true}, nil
	}
	if opt.skipWitness() {
		return &Implication{Implied: false}, nil
	}

	// Build a tree with at least two φ-type nodes.
	enc, err := c.eng.template()
	if err != nil {
		return nil, err
	}
	if err := enc.AddUnary(nil); err != nil {
		return nil, err
	}
	extVar, ok := enc.Sys.Lookup(cardinality.ExtVarName(phi.Type))
	if !ok {
		return nil, fmt.Errorf("core: internal error: no extent variable for %q", phi.Type)
	}
	enc.Sys.AddGe(linear.Term(extVar, 1), 2)
	sol, err := ilp.Solve(ctx, enc.Sys, opt.solver())
	c.recordSolve(sol)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	if !sol.Feasible {
		return nil, fmt.Errorf("core: internal error: MaxOccurrences ≥ 2 but encoding forbids two %q nodes", phi.Type)
	}
	tree, err := witness.Build(ctx, enc, nil, sol.Values, opt.witnessLimits())
	if err != nil {
		return nil, wrapCanceled(err)
	}
	distinctValues(tree)
	nodes := tree.Ext(phi.Type)
	if len(nodes) < 2 {
		return nil, fmt.Errorf("core: internal error: witness has %d %q nodes, want ≥ 2", len(nodes), phi.Type)
	}
	for _, a := range phi.Attrs {
		v, _ := nodes[0].Attr(a)
		nodes[1].SetAttr(a, v)
	}
	if ok, violated := constraint.SatisfiedAll(tree, sigma); !ok {
		return nil, fmt.Errorf("core: internal error: counterexample violates Σ constraint %s", violated)
	}
	if constraint.Satisfied(tree, phi) {
		return nil, fmt.Errorf("core: internal error: counterexample satisfies %s", phi)
	}
	return &Implication{Implied: false, Counterexample: tree}, nil
}
