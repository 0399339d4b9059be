package simplex

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestPivotKernelIsAllocationFree pins the //xic:hotpath contract that
// xicvet's hotalloc analyzer enforces statically: once a rat64 tableau is
// built and its buffers have grown to the solve's fill-in, the steady-state
// pivot kernel (phase-1 objective setup, pivoting to optimality and driving
// out artificials) performs zero heap allocations. The tableau state is
// restored with copies into the existing row buffers between runs so the
// measured closure itself stays allocation-free.
func TestPivotKernelIsAllocationFree(t *testing.T) {
	p := encodingProblem(rand.New(rand.NewSource(5)), 40)
	ft := newTableau[rat64](p, new(fastArith))
	if ft.ar.overflow {
		t.Fatal("the rat64 build overflowed on small integer data")
	}

	// Snapshot the mutable tableau state once, outside the measurement.
	rowsSnap := make([][]entry[rat64], ft.m)
	for i, row := range ft.rows {
		rowsSnap[i] = append([]entry[rat64](nil), row...)
	}
	rhsSnap := append([]rat64(nil), ft.rhs...)
	basisSnap := append([]int(nil), ft.basis...)
	objRowSnap := append([]rat64(nil), ft.objRow...)
	objValSnap := ft.objVal

	// Every row's buffer holds at least its built length, so restoring
	// never reallocates.
	restore := func() {
		for i, snap := range rowsSnap {
			ft.rows[i] = ft.rows[i][:len(snap)]
			copy(ft.rows[i], snap)
		}
		copy(ft.rhs, rhsSnap)
		copy(ft.basis, basisSnap)
		copy(ft.objRow, objRowSnap)
		ft.objVal = objValSnap
		ft.pivots = 0
	}

	var outcome pivotOutcome
	var pivots int
	allocs := testing.AllocsPerRun(100, func() {
		restore()
		ft.setPhase1Objective()
		outcome = ft.pivotToOptimality(ft.ncols)
		if outcome == pivotOptimal {
			ft.driveOutArtificials()
		}
		pivots = ft.pivots
	})

	if ft.ar.overflow {
		t.Fatal("rat64 overflowed on small integer data")
	}
	if outcome != pivotOptimal {
		t.Fatalf("phase-1 outcome = %v, want optimal", outcome)
	}
	if pivots == 0 {
		t.Fatal("degenerate measurement: the kernel never pivoted")
	}
	filled := false
	for i, row := range ft.rows {
		if len(row) > len(rowsSnap[i]) {
			filled = true
		}
	}
	if !filled {
		t.Fatal("degenerate measurement: no row filled in, so the grow path never ran")
	}
	if allocs != 0 {
		t.Errorf("pivot kernel allocates %.1f times per run; the //xic:hotpath contract is 0", allocs)
	}
}

// TestFastSolveMemoryFollowsNonzeros pins that the kernel's memory
// follows the system's nonzeros: one rat64 solve of an encoding-shaped LP
// (about 1% dense) allocates under a quarter of the 16·m·ncols bytes a
// dense int64 tableau of the same shape would hold.
func TestFastSolveMemoryFollowsNonzeros(t *testing.T) {
	p := encodingProblem(rand.New(rand.NewSource(2)), 160)
	ft := newTableau[rat64](p, new(fastArith))
	m, ncols := ft.m, ft.ncols
	if m < 150 || ncols < 300 {
		t.Fatalf("problem is %d×%d, want at least 150×300", m, ncols)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sol *Solution
	for r := 0; r < runs; r++ {
		var completed bool
		sol, completed = solveWith[rat64](p, new(fastArith))
		if !completed {
			t.Fatal("rat64 fell back on small integer data")
		}
	}
	runtime.ReadMemStats(&after)
	if sol.Pivots < m/2 {
		t.Fatalf("degenerate measurement: %d pivots on %d rows", sol.Pivots, m)
	}
	perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
	dense := uint64(16 * m * ncols)
	t.Logf("%d×%d, %d pivots: %d B per solve; a dense tableau holds %d B", m, ncols, sol.Pivots, perSolve, dense)
	if perSolve >= dense/4 {
		t.Errorf("one fast solve allocates %d B, want under a quarter of the dense tableau's %d B", perSolve, dense)
	}
}
