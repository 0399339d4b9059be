package simplex

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestRat64Arithmetic(t *testing.T) {
	a, ok := makeRat(6, -4)
	if !ok || a.n != -3 || a.d != 2 {
		t.Fatalf("makeRat(6,-4) = %v %v, want -3/2", a, ok)
	}
	if _, ok := makeRat(1, 0); ok {
		t.Error("makeRat(1,0) accepted a zero denominator")
	}
	if _, ok := makeRat(math.MinInt64, 1); ok {
		t.Error("makeRat(MinInt64,1) accepted an unnegatable numerator")
	}
	if _, ok := makeRat(maxFastMag+1, 1); ok {
		t.Error("makeRat above the magnitude cap accepted")
	}
	sum, ok := addRat(rat64{1, 3}, rat64{1, 6})
	if !ok || sum.n != 1 || sum.d != 2 {
		t.Errorf("1/3 + 1/6 = %v %v, want 1/2", sum, ok)
	}
	prod, ok := mulRat(rat64{2, 3}, rat64{3, 4})
	if !ok || prod.n != 1 || prod.d != 2 {
		t.Errorf("2/3 * 3/4 = %v %v, want 1/2", prod, ok)
	}
	if _, ok := mulRat(rat64{maxFastMag, 1}, rat64{maxFastMag, 1}); ok {
		t.Error("mulRat beyond the cap accepted")
	}
	if _, ok := mul64(math.MinInt64, -1); ok {
		t.Error("mul64(MinInt64,-1) reported ok despite wrapping")
	}
	cmp, ok := cmpRat(rat64{1, 3}, rat64{1, 2})
	if !ok || cmp != -1 {
		t.Errorf("cmp(1/3,1/2) = %d %v, want -1", cmp, ok)
	}
	inv, ok := invRat(rat64{-2, 5})
	if !ok || inv.n != -5 || inv.d != 2 {
		t.Errorf("inv(-2/5) = %v %v, want -5/2", inv, ok)
	}
	if _, ok := invRat(rat64{0, 1}); ok {
		t.Error("invRat(0) reported ok")
	}
}

// randomProblem builds a small LP with integer data in a range the fast
// kernel always handles, so fast-vs-exact agreement is a real comparison
// rather than a fallback test.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(4)
	p := New(n)
	rows := 1 + rng.Intn(5)
	for i := 0; i < rows; i++ {
		coeffs := make(map[int]int64)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				coeffs[j] = int64(rng.Intn(7) - 3)
			}
		}
		rel := Rel(rng.Intn(3))
		p.AddRowInt(coeffs, rel, int64(rng.Intn(9)-4))
	}
	if rng.Intn(2) == 0 {
		obj := make(map[int]*big.Rat, n)
		for j := 0; j < n; j++ {
			obj[j] = big.NewRat(int64(1+rng.Intn(3)), 1)
		}
		p.SetObjective(obj)
	}
	return p
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
	p := New(nvars)
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
			p.AddRowInt(coeffs, Eq, lhs)
		case d < 17:
			p.AddRowInt(coeffs, Ge, lhs-int64(rng.Intn(3)))
		default:
			p.AddRowInt(coeffs, Le, lhs+int64(rng.Intn(3)))
		}
	}
	switch rng.Intn(3) {
	case 1: // nonnegative costs: bounded below
		obj := make(map[int]*big.Rat)
		for j := 0; j < nvars; j++ {
			if rng.Intn(3) == 0 {
				obj[j] = big.NewRat(int64(1+rng.Intn(3)), 1)
			}
		}
		p.SetObjective(obj)
	case 2: // mixed signs: unbounded outcomes too
		obj := make(map[int]*big.Rat)
		for j := 0; j < nvars; j++ {
			if rng.Intn(3) == 0 {
				obj[j] = big.NewRat(int64(rng.Intn(7)-3), 1)
			}
		}
		p.SetObjective(obj)
	}
	return p
}

// checkFastMatchesExact solves p on both kernels and fails t unless they
// agree. When the fast kernel completes it must report the identical
// status, pivot count, objective and vertex as the exact kernel — the fast
// path is the same algorithm in a different number representation, not an
// approximation. When it falls back, Solve must return the exact kernel's
// answer with the wasted fast pivots charged on top. It reports whether
// the fast kernel completed.
func checkFastMatchesExact(t *testing.T, name string, p *Problem) bool {
	t.Helper()
	want := p.solveExact()
	got, fastPivots, ok := p.solveFast()
	if !ok {
		got = p.Solve()
		if !got.ExactFallback || got.FastPivots != fastPivots || got.Pivots != want.Pivots+fastPivots {
			t.Fatalf("%s: fallback solve reports ExactFallback=%v FastPivots=%d Pivots=%d, want true, %d, %d",
				name, got.ExactFallback, got.FastPivots, got.Pivots, fastPivots, want.Pivots+fastPivots)
		}
	} else if fastPivots != want.Pivots {
		t.Fatalf("%s: fast pivots %d, exact %d (kernels must pivot identically)",
			name, fastPivots, want.Pivots)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: fast status %v, exact %v", name, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return ok
	}
	if got.Obj.Cmp(want.Obj) != 0 {
		t.Fatalf("%s: fast obj %s, exact %s", name, got.Obj, want.Obj)
	}
	for j := range got.X {
		if got.X[j].Cmp(want.X[j]) != 0 {
			t.Fatalf("%s: x[%d] fast %s, exact %s", name, j, got.X[j], want.X[j])
		}
	}
	return ok
}

// TestFastMatchesExact cross-validates the two kernels on two families:
// tiny dense problems, and encoding-shaped sparse ones where a sparse
// kernel and a dense one could actually differ.
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
// the sparse int64 kernel and the dense exact one.
func FuzzFastMatchesExact(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(60))
	f.Add(int64(42), uint8(190))
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		p := encodingProblem(rand.New(rand.NewSource(seed)), 10+int(rows)%191)
		checkFastMatchesExact(t, fmt.Sprintf("seed %d rows %d", seed, rows), p)
	})
}

// TestFallbackOnBigData feeds coefficients outside int64 so the fast build
// fails and Solve reruns on the exact kernel, reporting the fallback.
func TestFallbackOnBigData(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))
	p := New(1)
	p.AddRow(map[int]*big.Rat{0: big.NewRat(1, 1)}, Ge, huge)
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
// input whose tableau entries blow past maxFastMag only after the fast
// kernel has pivoted. Phase 1 is empty (≤ rows start feasible), and each
// phase-2 pivot multiplies coefficients near 2^24 into denominators
// near 2^48.
func TestFallbackOnMagnitudeCap(t *testing.T) {
	const c = 1 << 24
	p := New(2)
	p.AddRowInt(map[int]int64{0: c + 203, 1: c - 75}, Le, c+3643)
	p.AddRowInt(map[int]int64{0: c + 500, 1: c - 772}, Le, c+3452)
	p.AddRowInt(map[int]int64{0: c + 548, 1: c - 287}, Le, c+3891)
	p.SetObjective(map[int]*big.Rat{0: big.NewRat(-2, 1), 1: big.NewRat(-2, 1)})
	sol := p.Solve()
	want := p.solveExact()
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

// TestSetExact pins the ablation switch: with SetExact(true) the fast
// kernel never runs, so FastPivots stays zero and no fallback is reported.
func TestSetExact(t *testing.T) {
	p := New(2)
	p.AddRowInt(map[int]int64{0: 1, 1: 2}, Ge, 3)
	p.SetExact(true)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.FastPivots != 0 || sol.ExactFallback {
		t.Errorf("exact-only solve reported FastPivots=%d ExactFallback=%v", sol.FastPivots, sol.ExactFallback)
	}

	q := New(2)
	q.AddRowInt(map[int]int64{0: 1, 1: 2}, Ge, 3)
	fastSol := q.Solve()
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

// TestFastInterrupt pins that the interrupt hook reaches the fast kernel:
// an immediately-firing hook interrupts without falling back to exact.
func TestFastInterrupt(t *testing.T) {
	p := New(2)
	p.AddRowInt(map[int]int64{0: 1, 1: 1}, Ge, 2)
	p.SetInterrupt(func() bool { return true })
	sol := p.Solve()
	if sol.Status != Interrupted {
		t.Fatalf("status = %v, want interrupted", sol.Status)
	}
	if sol.ExactFallback {
		t.Error("interrupt must not trigger an exact rerun")
	}
}
