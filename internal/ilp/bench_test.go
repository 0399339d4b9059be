package ilp

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"xic/internal/cardinality"
	"xic/internal/dtd"
	"xic/internal/linear"
	"xic/internal/presolve"
	"xic/internal/randgen"
	"xic/internal/simplex"
)

// randomFeasibleSystem builds a system with a known integer point, plus
// implications.
func randomFeasibleSystem(rng *rand.Rand, n, rows int) *linear.System {
	s := linear.NewSystem()
	ids := make([]int, n)
	point := make([]int64, n)
	for i := range ids {
		ids[i] = s.Var(fmt.Sprintf("x%d", i))
		point[i] = int64(rng.Intn(4))
	}
	for r := 0; r < rows; r++ {
		e := linear.Expr{}
		var lhs int64
		for i, id := range ids {
			c := int64(rng.Intn(5) - 2)
			if c != 0 {
				e.Plus(id, c)
				lhs += c * point[i]
			}
		}
		switch rng.Intn(3) {
		case 0:
			s.AddEq(e, lhs)
		case 1:
			s.AddLe(e, lhs+int64(rng.Intn(3)))
		default:
			s.AddGe(e, lhs-int64(rng.Intn(3)))
		}
	}
	if n >= 2 {
		s.AddImplication(ids[0], ids[1])
	}
	return s
}

func BenchmarkSolveFeasible(b *testing.B) {
	for _, size := range []struct{ n, rows int }{{5, 5}, {10, 10}, {15, 12}} {
		rng := rand.New(rand.NewSource(1))
		sys := randomFeasibleSystem(rng, size.n, size.rows)
		b.Run(fmt.Sprintf("%dv-%dr", size.n, size.rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Solve(context.Background(), sys, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

func BenchmarkSolveInfeasible(b *testing.B) {
	s := linear.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 10)
	s.AddLe(linear.Term(x, 1).Plus(y, 1), 9)
	for i := 0; i < b.N; i++ {
		res, err := Solve(context.Background(), s, nil)
		if err != nil || res.Feasible {
			b.Fatalf("want infeasible: %v %v", res, err)
		}
	}
}

// BenchmarkAblationBigMVsNative compares the two treatments of the
// conditional constraints of Ψ(D,Σ): the paper's big-M matrix rewrite
// (Theorem 4.1's proof) versus native lazy case-splitting in the search.
// The big-M route drags 200+-bit constants through every simplex pivot;
// the native route branches only on violated conditionals. This ablation
// justifies the default documented in DESIGN.md.
func BenchmarkAblationBigMVsNative(b *testing.B) {
	mk := func() *linear.System {
		s := linear.NewSystem()
		var ids []int
		for i := 0; i < 8; i++ {
			ids = append(ids, s.Var(fmt.Sprintf("x%d", i)))
		}
		for i := 0; i+1 < len(ids); i++ {
			s.AddLe(linear.Term(ids[i+1], 1).Plus(ids[i], -1), 0) // x_{i+1} ≤ x_i
			s.AddImplication(ids[i], ids[i+1])
		}
		s.AddGe(linear.Term(ids[0], 1), 3)
		return s
	}
	b.Run("native", func(b *testing.B) {
		sys := mk()
		for i := 0; i < b.N; i++ {
			res, err := Solve(context.Background(), sys, nil)
			if err != nil || !res.Feasible {
				b.Fatalf("want feasible: %v %v", res, err)
			}
		}
	})
	b.Run("bigM", func(b *testing.B) {
		m := mk().BigM()
		for i := 0; i < b.N; i++ {
			res, err := SolveMatrix(context.Background(), m, nil)
			if err != nil || !res.Feasible {
				b.Fatalf("want feasible: %v %v", res, err)
			}
		}
	})
}

// teacherLP is the presolved Ψ(D,Σ) of randgen.TeacherFamily(n), without
// its foreign keys (so the LP is feasible and its vertex is read), as a
// search's spec.
func teacherLP(tb testing.TB, n int) (*problemSpec, int) {
	tb.Helper()
	enc, err := cardinality.EncodeDTD(dtd.Simplify(randgen.TeacherFamily(n)))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := enc.AddFull(randgen.TeacherFamilyConstraints(n, false)); err != nil {
		tb.Fatal(err)
	}
	pre := presolve.Run(enc.Sys)
	if pre.Decided {
		tb.Fatalf("presolve decided teachers-%d; the LP is never built", n)
	}
	return specFromSystem(pre.Sys), len(pre.Sys.Constraints())
}

// TestNodeLPAllocationsPerRow pins the allocations of one node's LP to
// the size of its system: the search builds the rows once, so a node
// allocates only for its tableau, its fill-in and its vertex, at most
// maxAllocsPerRow per row of the presolved system.
func TestNodeLPAllocationsPerRow(t *testing.T) {
	const maxAllocsPerRow = 5
	for _, n := range []int{3, 8} {
		spec, rows := teacherLP(t, n)
		root := &node{lo: make([]*big.Int, spec.n), hi: make([]*big.Int, spec.n)}
		var sol *simplex.Solution
		allocs := testing.AllocsPerRun(10, func() { sol = realSolveLP(context.Background(), spec, root, nil) })
		if sol.ExactFallback {
			t.Fatalf("teachers-%d: the root LP fell back to big.Rat", n)
		}
		t.Logf("teachers-%d: %d rows × %d vars, %v after %d pivots, %.0f allocations (%.1f per row)",
			n, rows, spec.n, sol.Status, sol.Pivots, allocs, allocs/float64(rows))
		if allocs > float64(maxAllocsPerRow*rows) {
			t.Errorf("teachers-%d: one node LP made %.0f allocations on %d rows; want at most %d per row",
				n, allocs, rows, maxAllocsPerRow)
		}
	}
}
