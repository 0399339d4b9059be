package simplex

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// benchProblem draws rows constraints over n variables around a planted
// integer point; each coefficient is drawn from [-3, 3] with probability
// density, so density 1 gives dense rows and a few percent gives rows as
// sparse as a cardinality encoding's.
func benchProblem(rng *rand.Rand, n, rows int, density float64) *Problem {
	point := make([]int64, n)
	for i := range point {
		point[i] = int64(rng.Intn(5))
	}
	var out []Row
	for r := 0; r < rows; r++ {
		coeffs := make(map[int]int64)
		var lhs int64
		for i := 0; i < n; i++ {
			if rng.Float64() >= density {
				continue
			}
			c := int64(rng.Intn(7) - 3)
			if c != 0 {
				coeffs[i] = c
				lhs += c * point[i]
			}
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, intRow(coeffs, Eq, lhs))
		case 1:
			out = append(out, intRow(coeffs, Le, lhs+1))
		default:
			out = append(out, intRow(coeffs, Ge, lhs-1))
		}
	}
	obj := make([]Term, n)
	for i := range obj {
		obj[i] = Term{i, big.NewRat(1, 1)}
	}
	return New(n, out, obj)
}

// BenchmarkSolve times whole solves. The dense sizes are small LPs with
// every coefficient drawn; 20v-20r and 30v-25r overflow rat64 and finish
// on big.Rat. The sparse one has the size and density of the LPs the
// decide path solves: 160 rows, about 400 tableau columns, 1% nonzero; its
// -exact case runs it on big.Rat alone.
func BenchmarkSolve(b *testing.B) {
	for _, size := range []struct {
		n, rows int
		density float64
		exact   bool
	}{{10, 10, 1, false}, {20, 20, 1, false}, {30, 25, 1, false}, {200, 160, 0.015, false}, {200, 160, 0.015, true}} {
		rng := rand.New(rand.NewSource(3))
		p := benchProblem(rng, size.n, size.rows, size.density)
		p.SetExact(size.exact)
		name := fmt.Sprintf("%dv-%dr", size.n, size.rows)
		if size.density < 1 {
			name += fmt.Sprintf("-%.1f%%", 100*size.density)
		}
		if size.exact {
			name += "-exact"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sol := p.Solve()
				if sol.Status != Optimal {
					b.Fatalf("status %v", sol.Status)
				}
			}
		})
	}
}

func BenchmarkSolveInfeasible(b *testing.B) {
	p := New(3, []Row{
		intRow(map[int]int64{0: 1, 1: 1, 2: 1}, Eq, 5),
		intRow(map[int]int64{0: 1, 1: 1, 2: 1}, Eq, 6),
	}, nil)
	for i := 0; i < b.N; i++ {
		if sol := p.Solve(); sol.Status != Infeasible {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
