package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/reduction"
	"xic/internal/witness"
)

func TestWitnessNodeBudget(t *testing.T) {
	// D1's minimal witness needs 8 nodes (teachers, teacher, teach,
	// research, 2 subjects, 2 texts…); a budget of 2 must fail loudly
	// rather than truncate.
	_, err := consistent(dtd.Teachers(), nil, &Options{
		Witness: witness.Limits{MaxNodes: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "node") {
		t.Errorf("tiny witness budget not reported: %v", err)
	}
}

func TestSolverBudgetSurfacesAsError(t *testing.T) {
	// Σ1's refutation needs no branching (its LP relaxation is already
	// infeasible), so use the odd-cycle 0/1-LIP gadget of Theorem 4.7,
	// whose LP relaxation has the fractional solution x = ½ and therefore
	// forces integrality branching beyond one node.
	spec, err := reduction.LIPToSpec([][]int{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}})
	if err != nil {
		t.Fatalf("LIPToSpec: %v", err)
	}
	_, err = consistent(spec.DTD, spec.Sigma, &Options{
		Solver:      ilp.Options{MaxNodes: 1},
		SkipWitness: true,
	})
	if !errors.Is(err, ilp.ErrNodeLimit) {
		t.Errorf("solver limit not surfaced: %v", err)
	}
}

func TestDiagnosePropagatesSolverBudget(t *testing.T) {
	// Presolve decides the Σ1 checks without any search, so the budget can
	// only trip — and the test can only exercise its propagation — on the
	// raw branch-and-bound path.
	_, err := diagnose(dtd.Teachers(), constraint.Sigma1(), &Options{
		Solver: ilp.Options{MaxNodes: 1, DisablePresolve: true},
	})
	if !errors.Is(err, ilp.ErrNodeLimit) {
		t.Errorf("Diagnose should propagate the solver limit: %v", err)
	}
}

func TestNilOptionsEverywhere(t *testing.T) {
	// All entry points accept nil options.
	if _, err := consistent(dtd.Teachers(), nil, nil); err != nil {
		t.Errorf("Consistent(nil opts): %v", err)
	}
	if _, err := implies(dtd.Teachers(), nil, constraint.UnaryKey("teacher", "name"), nil); err != nil {
		t.Errorf("Implies(nil opts): %v", err)
	}
	c, _ := checker(dtd.Teachers())
	if _, err := c.ConsistentContext(context.Background(), nil, nil); err != nil {
		t.Errorf("Checker.ConsistentContext(nil opts): %v", err)
	}
}
