// External-package test: drives the cut layer through ilp.Solve (ilp
// imports presolve, so this lives in presolve_test like the fuzzer).
package presolve_test

import (
	"context"
	"testing"

	"xic/internal/ilp"
	"xic/internal/linear"
	"xic/internal/presolve"
)

// TestCutsShrinkSearch: the point of root cuts is fewer branch-and-bound
// nodes. On 2x + 3y ≥ 7 the raw min-Σx relaxation optimum is (0, 7/3) —
// fractional, so the raw search must branch — while the λ=3 cut x+y ≥ 3
// moves the optimum to an integral vertex and the presolved search
// decides at the root.
func TestCutsShrinkSearch(t *testing.T) {
	mk := func() *linear.System {
		s := linear.NewSystem()
		x, y := s.Var("x"), s.Var("y")
		s.AddGe(linear.Term(x, 2).Plus(y, 3), 7)
		return s
	}
	on, err := ilp.Solve(context.Background(), mk(), nil)
	if err != nil || !on.Feasible {
		t.Fatalf("presolved: %v %v", on, err)
	}
	off, err := ilp.Solve(context.Background(), mk(), &ilp.Options{DisablePresolve: true})
	if err != nil || !off.Feasible {
		t.Fatalf("raw: %v %v", off, err)
	}
	if on.Stats.Presolve.Cuts == 0 {
		t.Fatalf("no cuts generated: %+v", on.Stats.Presolve)
	}
	if on.Nodes != 1 {
		t.Errorf("presolved Nodes = %d, want 1 (cut makes the root integral)", on.Nodes)
	}
	if off.Nodes <= on.Nodes {
		t.Errorf("raw Nodes = %d, presolved = %d; cuts should shrink the search", off.Nodes, on.Nodes)
	}
}

// TestCutOrderDeterministic: a row that yields several cuts must append
// them in one order, so the reduced system, and the pivot count of the
// search over it, is the same on every run.
func TestCutOrderDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		build func() *linear.System
	}{
		{"2x+3y+5z>=7", func() *linear.System {
			s := linear.NewSystem()
			x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
			s.AddGe(linear.Term(x, 2).Plus(y, 3).Plus(z, 5), 7)
			return s
		}},
		{"two rows and an implication", func() *linear.System {
			s := linear.NewSystem()
			x, y, z, w := s.Var("x"), s.Var("y"), s.Var("z"), s.Var("w")
			s.AddGe(linear.Term(x, 2).Plus(y, 3).Plus(z, 5), 7)
			s.AddGe(linear.Term(x, 3).Plus(y, 2).Plus(w, 4), 9)
			s.AddImplication(x, w)
			return s
		}},
	}
	for _, tc := range cases {
		sys := tc.build()
		var reduced string
		var pivots int
		for run := 0; run < 100; run++ {
			res := presolve.Run(sys)
			if res.Decided || res.Stats.Cuts < 2 {
				t.Fatalf("%s: want a reduced system with two or more cuts, got %+v", tc.name, res)
			}
			sol, err := ilp.Solve(context.Background(), sys, nil)
			if err != nil || !sol.Feasible {
				t.Fatalf("%s: solve: %v %v", tc.name, sol, err)
			}
			if run == 0 {
				reduced, pivots = res.Sys.String(), sol.Stats.Pivots
				continue
			}
			if got := res.Sys.String(); got != reduced {
				t.Fatalf("%s, run %d: reduced system\n%s\nfirst run:\n%s", tc.name, run, got, reduced)
			}
			if sol.Stats.Pivots != pivots {
				t.Fatalf("%s, run %d: %d pivots, first run %d", tc.name, run, sol.Stats.Pivots, pivots)
			}
		}
	}
}
