package presolve

import (
	"fmt"
	"testing"
)

// teacherInputs are the Ψ(D,Σ) of randgen.TeacherFamily(3) and (8), with
// and without foreign keys: a small and a larger encoding, one consistent
// and one refuted variant of each.
func teacherInputs(tb testing.TB) []PinnedSystem {
	var out []PinnedSystem
	for _, n := range []int{3, 8} {
		for _, fk := range []bool{false, true} {
			out = append(out, PinnedSystem{fmt.Sprintf("teachers-%d-fk=%v", n, fk), teacherSystem(tb, n, fk)})
		}
	}
	return out
}

func BenchmarkPresolve(b *testing.B) {
	for _, in := range teacherInputs(b) {
		b.Run(in.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Run(in.Sys)
			}
		})
	}
}

// TestRunAllocationsPerRow pins presolve's allocation count to the size
// of its input: at most maxAllocsPerRow allocations per input row,
// whatever the system reduces to.
func TestRunAllocationsPerRow(t *testing.T) {
	const maxAllocsPerRow = 10
	for _, in := range teacherInputs(t) {
		rows := len(in.Sys.Constraints())
		allocs := testing.AllocsPerRun(10, func() { Run(in.Sys) })
		t.Logf("%s: %d rows, %.0f allocations (%.1f per row)", in.Name, rows, allocs, allocs/float64(rows))
		if allocs > float64(maxAllocsPerRow*rows) {
			t.Errorf("%s: Run made %.0f allocations on %d rows; want at most %d per row",
				in.Name, allocs, rows, maxAllocsPerRow)
		}
	}
}
