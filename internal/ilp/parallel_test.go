package ilp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"xic/internal/linear"
)

// randomSystem builds a small bounded system; the bound keeps brute force
// and the raw search fast, and the implications exercise case-splitting.
func randomSystem(rng *rand.Rand) *linear.System {
	s := linear.NewSystem()
	n := 1 + rng.Intn(4)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = s.Var(string(rune('a' + i)))
	}
	rows := 1 + rng.Intn(4)
	for r := 0; r < rows; r++ {
		e := linear.Expr{}
		for _, id := range ids {
			if c := int64(rng.Intn(7) - 3); c != 0 {
				e.Plus(id, c)
			}
		}
		rhs := int64(rng.Intn(9) - 2)
		switch rng.Intn(3) {
		case 0:
			s.AddEq(e, rhs)
		case 1:
			s.AddLe(e, rhs)
		default:
			s.AddGe(e, rhs)
		}
	}
	for _, id := range ids {
		s.AddLe(linear.Term(id, 1), 6)
	}
	if n >= 2 {
		for k := 0; k < rng.Intn(3); k++ {
			s.AddImplication(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
	}
	return s
}

// TestParallelVerdictsDeterministic pins the core parallel contract:
// feasibility verdicts are identical at parallelism 1, 2 and 8 (witnesses
// may differ but must all be valid). Runs under -race in CI, so it also
// shakes out data races in the worker pool.
func TestParallelVerdictsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		s := randomSystem(rng)
		var verdicts [3]bool
		for i, par := range []int{1, 2, 8} {
			res, err := Solve(context.Background(), s, &Options{MaxNodes: 50000, Parallelism: par})
			if err != nil {
				t.Fatalf("trial %d par=%d: %v\n%s", trial, par, err, s)
			}
			verdicts[i] = res.Feasible
			if res.Feasible {
				if msg := s.EvalBig(res.Values); msg != "" {
					t.Fatalf("trial %d par=%d: invalid witness: %s\n%s", trial, par, msg, s)
				}
			}
			if res.Nodes > 50000 {
				t.Fatalf("trial %d par=%d: Nodes %d exceeds budget", trial, par, res.Nodes)
			}
		}
		if verdicts[0] != verdicts[1] || verdicts[0] != verdicts[2] {
			t.Fatalf("trial %d: verdicts diverge across parallelism: %v\n%s", trial, verdicts, s)
		}
	}
}

// TestParallelAgainstPresolveOff additionally cross-validates four workers
// against one with presolve disabled, so the workers see raw systems with
// implications rather than presolve-shrunken ones.
func TestParallelAgainstPresolveOff(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		s := randomSystem(rng)
		one, errS := Solve(context.Background(), s, &Options{MaxNodes: 50000, DisablePresolve: true})
		par, errP := Solve(context.Background(), s, &Options{MaxNodes: 50000, DisablePresolve: true, Parallelism: 4})
		if errS != nil || errP != nil {
			t.Fatalf("trial %d: one worker=%v four=%v\n%s", trial, errS, errP, s)
		}
		if one.Feasible != par.Feasible {
			t.Fatalf("trial %d: one worker=%v four=%v\n%s", trial, one.Feasible, par.Feasible, s)
		}
		if par.Feasible {
			if msg := s.EvalBig(par.Values); msg != "" {
				t.Fatalf("trial %d: parallel witness invalid: %s\n%s", trial, msg, s)
			}
		}
	}
}

// oddCycleEqualities is x+y = y+z = x+z = 1: the relaxation's only point
// is (½, ½, ½), branching on any variable leaves two LP-infeasible
// children, and no equality row fails the GCD test. Refuting it therefore
// takes exactly three LP solves under every worker schedule.
func oddCycleEqualities() *linear.System {
	s := linear.NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	for _, pair := range [][2]int{{x, y}, {y, z}, {x, z}} {
		s.AddEq(linear.Term(pair[0], 1).Plus(pair[1], 1), 1)
	}
	return s
}

// TestParallelNodeLimit: the reservation discipline keeps Nodes ≤ MaxNodes
// exactly, even when eight workers race for the budget. The system needs
// three nodes whatever the schedule, so the limit is always reached.
func TestParallelNodeLimit(t *testing.T) {
	res, err := Solve(context.Background(), oddCycleEqualities(), &Options{MaxNodes: 3, Parallelism: 8, DisablePresolve: true})
	if err != nil || res.Feasible || res.Nodes != 3 {
		t.Fatalf("budget 3: Result %+v, error %v; want infeasible in exactly 3 nodes", res, err)
	}
	res, err = Solve(context.Background(), oddCycleEqualities(), &Options{MaxNodes: 2, Parallelism: 8, DisablePresolve: true})
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("error = %v, want ErrNodeLimit", err)
	}
	if res == nil {
		t.Fatal("nil Result on the limit path")
	}
	if res.Nodes > 2 {
		t.Errorf("Nodes = %d, want ≤ MaxNodes=2", res.Nodes)
	}
}

// TestCanceledSearchChargesNoNode: a search whose context is cancelled
// before it starts runs no LP, so at every worker count it reports no
// node and the context's error (Result.Nodes counts LP relaxations
// actually solved).
func TestCanceledSearchChargesNoNode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{0, 1, 2, 4} {
		res, err := Solve(ctx, oddCycleSystem(), &Options{Parallelism: par, DisablePresolve: true})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Parallelism %d: error = %v, want context.Canceled", par, err)
		}
		if res == nil || res.Nodes != 0 {
			t.Errorf("Parallelism %d: Result %+v, want Nodes 0", par, res)
		}
	}
}

// TestParallelCancellationLeavesNoGoroutines: cancelling mid-search ends
// every worker — goroutine counts return to baseline (a goleak-style
// check without the dependency).
func TestParallelCancellationLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		// A system that branches enough for workers to be mid-search when
		// the context fires.
		s := linear.NewSystem()
		ids := make([]int, 6)
		for i := range ids {
			ids[i] = s.Var(string(rune('a' + i)))
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				s.AddGe(linear.Term(ids[i], 2).Plus(ids[j], 2), 3)
			}
		}
		for _, id := range ids {
			s.AddLe(linear.Term(id, 1), 1)
		}
		go func() {
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
			cancel()
		}()
		res, err := Solve(ctx, s, &Options{Parallelism: 8, DisablePresolve: true})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: unexpected error class: %v", round, err)
		}
		if res == nil {
			t.Fatalf("round %d: nil Result", round)
		}
	}
	// Workers are joined before Solve returns, so only the timer goroutines
	// above may still be draining; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
}

// TestParallelStealsReported: a branching search across many workers
// records work stealing in Stats (the root's subtree must travel to other
// workers' deques for any parallelism to happen at all).
func TestParallelStealsReported(t *testing.T) {
	total := 0
	for trial := 0; trial < 50 && total == 0; trial++ {
		res, err := Solve(context.Background(), oddCycleSystem(), &Options{Parallelism: 4, DisablePresolve: true})
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		total += res.Stats.Steals
	}
	if total == 0 {
		t.Error("no steals recorded across 50 branching searches with 4 workers")
	}
}

// TestInvalidOptionsRejected pins the taxonomy fix: negative MaxNodes and
// negative Parallelism fail fast with ErrInvalidOptions naming the field,
// instead of silently running 20000 nodes.
func TestInvalidOptionsRejected(t *testing.T) {
	s := linear.NewSystem()
	s.AddGe(linear.Term(s.Var("x"), 1), 1)
	for _, opt := range []*Options{{MaxNodes: -1}, {Parallelism: -2}} {
		res, err := Solve(context.Background(), s, opt)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%+v: error = %v, want ErrInvalidOptions", opt, err)
		}
		if res == nil {
			t.Fatalf("%+v: nil Result on the invalid-options path", opt)
		}
		if res.Nodes != 0 {
			t.Errorf("%+v: Nodes = %d, want 0 (no search ran)", opt, res.Nodes)
		}
		if !strings.Contains(err.Error(), "negative") {
			t.Errorf("%+v: error %q does not name the problem", opt, err)
		}
	}
	m, errM := s.MatrixGE()
	if errM != nil {
		t.Fatalf("MatrixGE: %v", errM)
	}
	if _, err := SolveMatrix(context.Background(), m, &Options{MaxNodes: -5}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("SolveMatrix: error = %v, want ErrInvalidOptions", err)
	}
}

// TestFastTableauStatsReported: solves over int64-friendly systems run on
// the fast kernel (FastPivots > 0, no fallbacks); DisableFastTableau
// forces them all back to exact pivots.
func TestFastTableauStatsReported(t *testing.T) {
	s := linear.NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddGe(linear.Term(x, 1).Plus(y, 1), 10)
	res, err := Solve(context.Background(), s, &Options{DisablePresolve: true})
	if err != nil || !res.Feasible {
		t.Fatalf("want feasible: %v %v", res, err)
	}
	if res.Stats.FastPivots == 0 || res.Stats.FastPivots != res.Stats.Pivots {
		t.Errorf("fast solve: FastPivots=%d Pivots=%d, want equal and nonzero", res.Stats.FastPivots, res.Stats.Pivots)
	}
	if res.Stats.ExactFallbacks != 0 {
		t.Errorf("ExactFallbacks = %d, want 0", res.Stats.ExactFallbacks)
	}

	exact, err := Solve(context.Background(), s, &Options{DisablePresolve: true, DisableFastTableau: true})
	if err != nil || !exact.Feasible {
		t.Fatalf("want feasible: %v %v", exact, err)
	}
	if exact.Stats.FastPivots != 0 {
		t.Errorf("exact-only solve reported FastPivots=%d", exact.Stats.FastPivots)
	}
	if exact.Stats.Pivots != res.Stats.Pivots {
		t.Errorf("kernels disagree on pivot count: fast=%d exact=%d", res.Stats.Pivots, exact.Stats.Pivots)
	}
}

// FuzzParallelAgreement is the N-workers-vs-one soundness fuzzer the CI
// smoke job runs: for any decodable system, the verdicts of one worker and
// of four must agree (node-limit truncations excepted — the two searches
// spend the budget in different tree orders), and the four workers'
// witnesses must satisfy the system.
func FuzzParallelAgreement(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 0, 4})
	f.Add([]byte{3, 4, 250, 0, 1, 2, 200, 9, 17, 33, 2, 1, 0, 1})
	f.Add([]byte{2, 2, 6, 6, 1, 1, 5, 5, 0, 2, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := fuzzSystemFromBytes(data)
		if sys == nil {
			t.Skip()
		}
		one, errS := Solve(context.Background(), sys, &Options{MaxNodes: 20000})
		par, errP := Solve(context.Background(), sys, &Options{MaxNodes: 20000, Parallelism: 4})
		if errors.Is(errS, ErrNodeLimit) || errors.Is(errP, ErrNodeLimit) {
			t.Skip() // bounded-search truce; agreement is only meaningful on completed searches
		}
		if errS != nil || errP != nil {
			t.Fatalf("solve errors: one worker=%v four=%v\n%s", errS, errP, sys)
		}
		if one.Feasible != par.Feasible {
			t.Fatalf("one worker=%v four=%v on\n%s", one.Feasible, par.Feasible, sys)
		}
		if par.Feasible {
			if msg := sys.EvalBig(par.Values); msg != "" {
				t.Fatalf("four workers' witness invalid (%s) on\n%s", msg, sys)
			}
		}
	})
}

// fuzzSystemFromBytes decodes fuzz input into a small bounded system (the
// same shape as presolve's agreement fuzzer).
func fuzzSystemFromBytes(data []byte) *linear.System {
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
	rows := 1 + int(next())%5
	for r := 0; r < rows; r++ {
		e := linear.Expr{}
		for _, id := range ids {
			if c := int64(next())%7 - 3; c != 0 {
				e.Plus(id, c)
			}
		}
		rhs := int64(next())%11 - 3
		switch next() % 3 {
		case 0:
			s.AddEq(e, rhs)
		case 1:
			s.AddLe(e, rhs)
		default:
			s.AddGe(e, rhs)
		}
	}
	for _, id := range ids {
		s.AddLe(linear.Term(id, 1), 5)
	}
	imps := int(next()) % 3
	for k := 0; k < imps; k++ {
		s.AddImplication(ids[int(next())%n], ids[int(next())%n])
	}
	return s
}
