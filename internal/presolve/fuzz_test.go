// The fuzzer lives in an external test package: it drives the presolve
// layer through ilp.Solve, and ilp itself imports presolve.
package presolve_test

import (
	"context"
	"errors"
	"testing"

	"xic/internal/ilp"
	"xic/internal/linear"
	"xic/internal/presolve"
)

// systemFromBytes decodes fuzz input into a small bounded linear system:
// byte-driven variable count, rows, coefficients, relations and
// implications. Variables are capped so the raw search always terminates
// quickly. Coefficients lie in −3..3 and constants in −3..7, except that
// one input in four (a trailing byte decides, so shorter inputs decode as
// before) scales some of them by up to 2^62, where presolve's checked
// arithmetic overflows.
func systemFromBytes(data []byte) *linear.System {
	if len(data) < 3 {
		return nil
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	s := linear.NewSystem()
	n := 1 + int(next())%4
	ids := make([]int, n)
	for i := range ids {
		ids[i] = s.Var(string(rune('a' + i)))
	}
	rows := make([]linear.Constraint, 1+int(next())%5)
	for r := range rows {
		e := linear.Expr{}
		for _, id := range ids {
			if c := int64(next())%7 - 3; c != 0 {
				e.Plus(id, c)
			}
		}
		rows[r] = linear.Constraint{Expr: e, Const: int64(next())%11 - 3, Op: linear.Op(next() % 3)}
	}
	imps := make([]linear.Implication, int(next())%3)
	for k := range imps {
		imps[k] = linear.Implication{If: ids[int(next())%n], Then: ids[int(next())%n]}
	}
	if next()%4 == 3 {
		for i := range rows {
			r := &rows[i]
			if next()%2 == 1 {
				r.Const = scaled(r.Const, next())
			}
			for _, id := range ids {
				if c, ok := r.Expr[id]; ok && next()%2 == 1 {
					r.Expr[id] = scaled(c, next())
				}
			}
		}
	}
	for _, r := range rows {
		s.Add(r.Expr, r.Op, r.Const)
	}
	// Cap every variable so branch-and-bound cannot wander far.
	for _, id := range ids {
		s.AddLe(linear.Term(id, 1), 5)
	}
	for _, im := range imps {
		s.AddImplication(im.If, im.Then)
	}
	return s
}

// scaled multiplies v by 2^(b mod 63), or by the largest smaller power of
// two whose product fits int64.
func scaled(v int64, b byte) int64 {
	k := uint(b % 63)
	for k > 0 && (v<<k)>>k != v {
		k--
	}
	return v << k
}

// FuzzPresolveAgreement is the soundness fuzzer the CI smoke job runs:
// for any decodable system, presolved and raw feasibility must agree, and
// any witness the presolved pipeline returns must satisfy the original
// system. A presolve that bails must hand back the input unreduced.
func FuzzPresolveAgreement(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 0, 4})
	f.Add([]byte{3, 4, 250, 0, 1, 2, 200, 9, 17, 33, 2, 1, 0, 1})
	f.Add([]byte{2, 2, 6, 6, 1, 1, 5, 5, 0, 2, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := systemFromBytes(data)
		if sys == nil {
			t.Skip()
		}
		if res := presolve.Run(sys); res.Stats.Bailed {
			requireUnreduced(t, res, sys)
		}
		opt := &ilp.Options{MaxNodes: 20000}
		on, errOn := ilp.Solve(context.Background(), sys, opt)
		off, errOff := ilp.Solve(context.Background(), sys,
			&ilp.Options{MaxNodes: opt.MaxNodes, DisablePresolve: true})
		if errors.Is(errOn, ilp.ErrNodeLimit) || errors.Is(errOff, ilp.ErrNodeLimit) {
			t.Skip() // bounded-search truce; agreement is only meaningful on completed searches
		}
		if errOn != nil || errOff != nil {
			t.Fatalf("solve errors: on=%v off=%v\n%s", errOn, errOff, sys)
		}
		if on.Feasible != off.Feasible {
			t.Fatalf("presolved=%v raw=%v on\n%s", on.Feasible, off.Feasible, sys)
		}
		if on.Feasible {
			if msg := sys.EvalBig(on.Values); msg != "" {
				t.Fatalf("presolved witness invalid (%s) on\n%s", msg, sys)
			}
		}
	})
}
