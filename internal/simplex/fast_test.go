package simplex

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestRat64Arithmetic(t *testing.T) {
	var f fastArith
	if a := f.makeRat(6, -4); f.overflow || a.n != -3 || a.d != 2 {
		t.Fatalf("makeRat(6,-4) = %v (overflow %v), want -3/2", a, f.overflow)
	}
	for name, op := range map[string]func(f *fastArith) rat64{
		"makeRat(1,0)":           func(f *fastArith) rat64 { return f.makeRat(1, 0) },
		"makeRat(MinInt64,1)":    func(f *fastArith) rat64 { return f.makeRat(math.MinInt64, 1) },
		"makeRat above the cap":  func(f *fastArith) rat64 { return f.makeRat(maxFastMag+1, 1) },
		"mul beyond the cap":     func(f *fastArith) rat64 { return f.mul(rat64{maxFastMag, 1}, rat64{maxFastMag, 1}) },
		"mul64(MinInt64,-1)":     func(f *fastArith) rat64 { return rat64{f.mul64(math.MinInt64, -1), 1} },
		"inv(0)":                 func(f *fastArith) rat64 { return f.inv(rat64{0, 1}) },
		"fromRat(2^80)":          func(f *fastArith) rat64 { return f.fromRat(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))) },
		"cmp of crossed extrema": func(f *fastArith) rat64 { return rat64{int64(f.cmp(rat64{maxFastMag, 3}, rat64{1, maxFastMag})), 1} },
	} {
		var f fastArith
		if v := op(&f); !f.overflow {
			t.Errorf("%s = %v without setting the overflow flag", name, v)
		} else if v.d == 0 {
			t.Errorf("%s returned %v, not a valid rat64", name, v)
		}
	}
	f = fastArith{}
	if sum := f.add(rat64{1, 3}, rat64{1, 6}); sum.n != 1 || sum.d != 2 {
		t.Errorf("1/3 + 1/6 = %v, want 1/2", sum)
	}
	if prod := f.mul(rat64{2, 3}, rat64{3, 4}); prod.n != 1 || prod.d != 2 {
		t.Errorf("2/3 * 3/4 = %v, want 1/2", prod)
	}
	if c := f.cmp(rat64{1, 3}, rat64{1, 2}); c != -1 {
		t.Errorf("cmp(1/3,1/2) = %d, want -1", c)
	}
	if inv := f.inv(rat64{-2, 5}); inv.n != -5 || inv.d != 2 {
		t.Errorf("inv(-2/5) = %v, want -5/2", inv)
	}
	if f.overflow {
		t.Error("in-range operations set the overflow flag")
	}
}

// randomProblem builds a small LP with integer data in a range the fast
// kernel always handles, so fast-vs-exact agreement is a real comparison
// rather than a fallback test.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(4)
	var rows []Row
	for i := 1 + rng.Intn(5); i > 0; i-- {
		coeffs := make(map[int]int64)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				coeffs[j] = int64(rng.Intn(7) - 3)
			}
		}
		rel := Rel(rng.Intn(3))
		rows = append(rows, intRow(coeffs, rel, int64(rng.Intn(9)-4)))
	}
	var obj []Term
	if rng.Intn(2) == 0 {
		for j := 0; j < n; j++ {
			obj = append(obj, Term{j, big.NewRat(int64(1+rng.Intn(3)), 1)})
		}
	}
	return New(n, rows, obj)
}

// encodingProblem draws an LP shaped like the cardinality encodings
// Ψ(D,Σ) the solver serves: rows constraints over rows to 2·rows
// variables, 1–5 nonzeros per row, mostly = and ≥ rows around a planted
// nonnegative integer point. Each row's variables lie in a window around
// its own position, as an element type's count is tied to its parent's and
// children's, which keeps fill-in local as in a shallow DTD's encoding.
// Coefficients are ±1 and ±2. About one problem in four also carries
// occasional medium coefficients, which force fractional pivots, some of
// them scaled by 2^24, which force fallbacks; about one in four moves one
// right-hand side off the planted point, so infeasible systems appear too.
func encodingProblem(rng *rand.Rand, rows int) *Problem {
	const window = 12
	nvars := rows + rng.Intn(rows+1)
	point := make([]int64, nvars)
	for j := range point {
		point[j] = int64(rng.Intn(4))
	}
	wide := rng.Intn(4) == 0
	perturb := -1
	if rng.Intn(4) == 0 {
		perturb = rng.Intn(rows)
	}
	var out []Row
	for r := 0; r < rows; r++ {
		k := 1 + rng.Intn(5)
		coeffs := make(map[int]int64, k)
		var lhs int64
		center := r * nvars / rows
		for len(coeffs) < k {
			j := min(max(center+rng.Intn(window)-window/2, 0), nvars-1)
			if _, dup := coeffs[j]; dup {
				continue
			}
			c := int64(1 + rng.Intn(2))
			if rng.Intn(2) == 0 {
				c = -c
			}
			if wide && rng.Intn(20) == 0 {
				c *= int64(2 + rng.Intn(1000))
				if rng.Intn(4) == 0 {
					c *= 1 << 24
				}
			}
			coeffs[j] = c
			lhs += c * point[j]
		}
		if r == perturb {
			lhs += int64(1 + rng.Intn(3))
		}
		switch d := rng.Intn(20); {
		case d < 9:
			out = append(out, intRow(coeffs, Eq, lhs))
		case d < 17:
			out = append(out, intRow(coeffs, Ge, lhs-int64(rng.Intn(3))))
		default:
			out = append(out, intRow(coeffs, Le, lhs+int64(rng.Intn(3))))
		}
	}
	obj := make(map[int]*big.Rat)
	switch rng.Intn(3) {
	case 1: // nonnegative costs: bounded below
		for j := 0; j < nvars; j++ {
			if rng.Intn(3) == 0 {
				obj[j] = big.NewRat(int64(1+rng.Intn(3)), 1)
			}
		}
	case 2: // mixed signs: unbounded outcomes too
		for j := 0; j < nvars; j++ {
			if rng.Intn(3) == 0 {
				obj[j] = big.NewRat(int64(rng.Intn(7)-3), 1)
			}
		}
	}
	return New(nvars, out, terms(obj))
}

// checkFastMatchesExact solves p three ways and fails t unless they agree:
// on rat64, on big.Rat and on the dense oracle. The big.Rat instance must
// report the oracle's status, pivot count, objective and vertex. So must
// rat64 when it completes: it is the same algorithm in another number
// representation, not an approximation. When rat64 hands over, Solve must
// return the big.Rat answer with the wasted rat64 pivots charged on top.
// It reports whether rat64 completed.
func checkFastMatchesExact(t *testing.T, name string, p *Problem) bool {
	t.Helper()
	want := denseSolve(p)
	exact, _ := solveWith[*big.Rat](p, bigArith{})
	sameSolution(t, name+" (big.Rat)", exact, want)
	fast, ok := solveWith[rat64](p, new(fastArith))
	got := p.Solve()
	if ok {
		sameSolution(t, name+" (rat64)", fast, want)
		if got.ExactFallback || got.FastPivots != want.Pivots || got.Pivots != want.Pivots {
			t.Fatalf("%s: Solve reports ExactFallback=%v FastPivots=%d Pivots=%d, want false, %d, %d",
				name, got.ExactFallback, got.FastPivots, got.Pivots, want.Pivots, want.Pivots)
		}
		return true
	}
	if !got.ExactFallback || got.FastPivots != fast.Pivots || got.Pivots != want.Pivots+fast.Pivots {
		t.Fatalf("%s: fallback solve reports ExactFallback=%v FastPivots=%d Pivots=%d, want true, %d, %d",
			name, got.ExactFallback, got.FastPivots, got.Pivots, fast.Pivots, want.Pivots+fast.Pivots)
	}
	rerun := *got
	rerun.Pivots -= got.FastPivots
	sameSolution(t, name+" (Solve)", &rerun, want)
	return false
}

// sameSolution fails t unless got reports want's status, pivot count,
// objective and vertex.
func sameSolution(t *testing.T, name string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, oracle %v", name, got.Status, want.Status)
	}
	if got.Pivots != want.Pivots {
		t.Fatalf("%s: %d pivots, oracle %d (the kernels must pivot identically)", name, got.Pivots, want.Pivots)
	}
	if got.Status != Optimal {
		return
	}
	if got.Obj.Cmp(want.Obj) != 0 {
		t.Fatalf("%s: obj %s, oracle %s", name, got.Obj, want.Obj)
	}
	for j := range got.X {
		if got.X[j].Cmp(want.X[j]) != 0 {
			t.Fatalf("%s: x[%d] = %s, oracle %s", name, j, got.X[j], want.X[j])
		}
	}
}

// TestFastMatchesExact cross-validates the kernel's two instances and the
// dense oracle on two families: tiny dense problems, and encoding-shaped
// sparse ones where a sparse kernel and a dense one could actually differ.
func TestFastMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	completed := 0
	for trial := 0; trial < 500; trial++ {
		if checkFastMatchesExact(t, fmt.Sprintf("dense trial %d", trial), randomProblem(rng)) {
			completed++
		}
	}
	if completed < 400 {
		t.Fatalf("only %d/500 dense trials completed on the fast kernel; the corpus should be int64-friendly", completed)
	}

	completed = 0
	const sparseTrials = 40
	for trial := 0; trial < sparseTrials; trial++ {
		p := encodingProblem(rng, 10+rng.Intn(191))
		if checkFastMatchesExact(t, fmt.Sprintf("sparse trial %d", trial), p) {
			completed++
		}
	}
	if completed < sparseTrials/2 {
		t.Fatalf("only %d/%d sparse trials completed on the fast kernel", completed, sparseTrials)
	}
}

// FuzzFastMatchesExact is the kernel-agreement fuzzer the CI smoke job
// runs: encoding-shaped LPs of 10–200 rows must get the same answer from
// the kernel's rat64 and big.Rat instances and the dense oracle.
func FuzzFastMatchesExact(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(60))
	f.Add(int64(42), uint8(190))
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		p := encodingProblem(rand.New(rand.NewSource(seed)), 10+int(rows)%191)
		checkFastMatchesExact(t, fmt.Sprintf("seed %d rows %d", seed, rows), p)
	})
}

// TestFallbackOnBigData feeds coefficients outside int64 so the rat64
// build overflows and Solve reruns on big.Rat, reporting the fallback.
func TestFallbackOnBigData(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))
	p := New(1, []Row{{Terms: []Term{{0, big.NewRat(1, 1)}}, Rel: Ge, RHS: huge}}, nil)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !sol.ExactFallback {
		t.Error("ExactFallback not reported for 2^80 data")
	}
	if sol.FastPivots != 0 {
		t.Errorf("FastPivots = %d, want 0 (build-time fallback)", sol.FastPivots)
	}
	if sol.X[0].Cmp(huge) != 0 {
		t.Errorf("x = %s, want %s", sol.X[0], huge)
	}
}

// TestFallbackOnMagnitudeCap exercises a mid-pivot fallback: in-range
// input whose tableau entries blow past maxFastMag only after rat64 has
// pivoted. Phase 1 is empty (≤ rows start feasible), and each
// phase-2 pivot multiplies coefficients near 2^24 into denominators
// near 2^48.
func TestFallbackOnMagnitudeCap(t *testing.T) {
	const c = 1 << 24
	p := New(2, []Row{
		intRow(map[int]int64{0: c + 203, 1: c - 75}, Le, c+3643),
		intRow(map[int]int64{0: c + 500, 1: c - 772}, Le, c+3452),
		intRow(map[int]int64{0: c + 548, 1: c - 287}, Le, c+3891),
	}, []Term{{0, big.NewRat(-2, 1)}, {1, big.NewRat(-2, 1)}})
	sol := p.Solve()
	want := denseSolve(p)
	if !sol.ExactFallback {
		t.Fatal("ExactFallback not reported; the input no longer reaches the magnitude cap")
	}
	if sol.FastPivots == 0 {
		t.Fatal("FastPivots = 0: the fallback fired before any fast pivot, not mid-solve")
	}
	if sol.Pivots != want.Pivots+sol.FastPivots {
		t.Errorf("Pivots = %d, want exact %d + fast %d", sol.Pivots, want.Pivots, sol.FastPivots)
	}
	if sol.Status != Optimal || want.Status != Optimal {
		t.Fatalf("status = %v, exact says %v; want optimal", sol.Status, want.Status)
	}
	for j := range sol.X {
		if sol.X[j].Cmp(want.X[j]) != 0 {
			t.Errorf("x[%d] = %s, exact says %s", j, sol.X[j], want.X[j])
		}
	}
}

// TestSetExact pins the ablation switch: with SetExact(true) rat64 never
// runs, so FastPivots stays zero and no fallback is reported.
func TestSetExact(t *testing.T) {
	rows := []Row{intRow(map[int]int64{0: 1, 1: 2}, Ge, 3)}
	p := New(2, rows, nil)
	p.SetExact(true)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.FastPivots != 0 || sol.ExactFallback {
		t.Errorf("exact-only solve reported FastPivots=%d ExactFallback=%v", sol.FastPivots, sol.ExactFallback)
	}

	fastSol := New(2, rows, nil).Solve()
	if fastSol.Status != Optimal {
		t.Fatalf("fast status = %v", fastSol.Status)
	}
	if fastSol.ExactFallback {
		t.Error("small instance should not fall back")
	}
	if fastSol.FastPivots == 0 || fastSol.FastPivots != fastSol.Pivots {
		t.Errorf("fast solve: FastPivots=%d Pivots=%d, want equal and nonzero", fastSol.FastPivots, fastSol.Pivots)
	}
	if fastSol.Pivots != sol.Pivots {
		t.Errorf("fast pivots %d != exact pivots %d for the same problem", fastSol.Pivots, sol.Pivots)
	}
}

// TestFastInterrupt pins that the interrupt hook reaches rat64: an
// immediately-firing hook interrupts without falling back to big.Rat.
func TestFastInterrupt(t *testing.T) {
	p := New(2, []Row{intRow(map[int]int64{0: 1, 1: 1}, Ge, 2)}, nil)
	p.SetInterrupt(func() bool { return true })
	sol := p.Solve()
	if sol.Status != Interrupted {
		t.Fatalf("status = %v, want interrupted", sol.Status)
	}
	if sol.ExactFallback {
		t.Error("interrupt must not trigger an exact rerun")
	}
}
