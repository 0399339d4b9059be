package presolve_test

import (
	"context"
	"math"
	"testing"

	"xic/internal/ilp"
	"xic/internal/linear"
	"xic/internal/presolve"
)

// TestOverflowSitesBail drives each place presolve's checked arithmetic
// can leave int64. Each must stop presolve with the input unreduced and no
// reduction claimed, and the solver must reach the same verdict with
// presolve on and off.
func TestOverflowSitesBail(t *testing.T) {
	cases := []struct {
		name     string
		feasible bool
		build    func(s *linear.System)
	}{
		{"substituting a fixed value into a row", true, func(s *linear.System) {
			// x = 1 is fixed in the first round; y and z are unbounded, so
			// propagation deduces nothing from the second row, and the
			// second round's substitution reads (MinInt64+5) − 2^62.
			x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
			s.AddEq(linear.Term(x, 1), 1)
			s.AddGe(linear.Term(x, 1<<62).Plus(y, 1).Plus(z, 1), math.MinInt64+5)
			s.AddImplication(y, z)
		}},
		{"summing an activity bound", true, func(s *linear.System) {
			// x, y ≤ 2^62: the activity bound of x + y is 2^63.
			x, y := s.Var("x"), s.Var("y")
			s.AddLe(linear.Term(x, 1), 1<<62)
			s.AddLe(linear.Term(y, 1), 1<<62)
			s.AddGe(linear.Term(x, 1).Plus(y, 1), 5)
		}},
		{"negating a ≤ row with MinInt64", false, func(s *linear.System) {
			x, y := s.Var("x"), s.Var("y")
			s.AddLe(linear.Term(x, 1).Plus(y, 1), math.MinInt64)
		}},
		{"tightening a bound past int64", true, func(s *linear.System) {
			// y ≥ 2^62 makes x − 2y ≥ 2^62 imply x ≥ 2^62 + 2^63.
			x, y := s.Var("x"), s.Var("y")
			s.AddGe(linear.Term(y, 1), 1<<62)
			s.AddGe(linear.Term(x, 1).Plus(y, -2), 1<<62)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := linear.NewSystem()
			tc.build(s)
			res := presolve.Run(s)
			if !res.Stats.Bailed {
				t.Fatalf("want a bail, got %+v", res)
			}
			requireUnreduced(t, res, s)
			on, err := ilp.Solve(context.Background(), s, nil)
			if err != nil {
				t.Fatalf("solve with presolve: %v", err)
			}
			off, err := ilp.Solve(context.Background(), s, &ilp.Options{DisablePresolve: true})
			if err != nil {
				t.Fatalf("solve without presolve: %v", err)
			}
			if on.Feasible != tc.feasible || off.Feasible != tc.feasible {
				t.Errorf("feasible: presolve on %v, off %v; want %v", on.Feasible, off.Feasible, tc.feasible)
			}
			if !on.Stats.Presolve.Bailed {
				t.Errorf("ilp.Stats.Presolve does not report the bail: %+v", on.Stats.Presolve)
			}
			if on.Feasible {
				if msg := s.EvalBig(on.Values); msg != "" {
					t.Errorf("witness invalid: %s", msg)
				}
			}
		})
	}
}

// requireUnreduced fails unless a bailed presolve returned its input
// with no reduction claimed.
func requireUnreduced(t *testing.T, res *presolve.Result, sys *linear.System) {
	t.Helper()
	st := res.Stats
	if res.Decided || res.Sys != sys || res.Fixed != nil ||
		st.RowsOut != st.Rows || st.VarsFixed != 0 || st.ImplicationsOut != st.Implications || st.Cuts != 0 {
		t.Fatalf("bailed presolve did not return the input unreduced: %+v\n%s", res, sys)
	}
}
