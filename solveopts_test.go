package xic

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestWithSolveOptionsDerivation: WithSolveOptions layers tweaks on top of
// the current view without touching the receiver, and SolveOptions reads
// the effective configuration back.
func TestWithSolveOptionsDerivation(t *testing.T) {
	spec := mustSpec(t, teachersDTD, "teacher.name -> teacher")
	if got := spec.SolveOptions(); got != (SolveOptions{}) {
		t.Fatalf("fresh Spec SolveOptions = %+v, want zero value", got)
	}

	tuned := spec.WithSolveOptions(
		WithMaxNodes(123),
		WithSolverParallelism(4),
		WithoutFastTableau(),
		WithSkipWitness(),
	)
	want := SolveOptions{MaxNodes: 123, SolverParallelism: 4, DisableFastTableau: true, SkipWitness: true}
	if got := tuned.SolveOptions(); got != want {
		t.Fatalf("tuned SolveOptions = %+v, want %+v", got, want)
	}
	// Layering: a second derivation keeps the first view's fields.
	layered := tuned.WithSolveOptions(WithoutPresolve())
	want.DisablePresolve = true
	if got := layered.SolveOptions(); got != want {
		t.Fatalf("layered SolveOptions = %+v, want %+v", got, want)
	}
	// The receiver is unchanged.
	if got := spec.SolveOptions(); got != (SolveOptions{}) {
		t.Fatalf("receiver mutated: %+v", got)
	}

	res, err := tuned.Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Witness != nil {
		t.Error("WithSkipWitness view must not build witnesses")
	}
	res, err = spec.Consistent(context.Background())
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if res.Witness == nil {
		t.Error("original view must still build witnesses")
	}
}

// TestPerCallOpts: ConsistentOpts and ImpliesOpts apply one-shot tweaks
// without changing the Spec.
func TestPerCallOpts(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1)
	res, err := spec.ConsistentOpts(context.Background(), WithSkipWitness(), WithSolverParallelism(2))
	if err != nil {
		t.Fatalf("ConsistentOpts: %v", err)
	}
	if res.Consistent {
		t.Error("Section 1 specification must stay inconsistent under per-call options")
	}
	imp, err := spec.ImpliesOpts(context.Background(), UnaryKey("teacher", "name"), WithSkipWitness())
	if err != nil {
		t.Fatalf("ImpliesOpts: %v", err)
	}
	if !imp.Implied {
		t.Error("compiled key must imply itself")
	}
	if got := spec.SolveOptions(); got != (SolveOptions{}) {
		t.Fatalf("per-call options leaked into the Spec: %+v", got)
	}
}

// TestSolveOptionsParallelVerdicts: verdicts are identical across
// parallelism settings on both a consistent and an inconsistent spec.
func TestSolveOptionsParallelVerdicts(t *testing.T) {
	for _, tc := range []struct {
		cons string
		want bool
	}{
		{sigma1, false},
		{"teacher.name -> teacher\nsubject.taught_by -> subject", true},
	} {
		var base *Result
		for _, par := range []int{1, 2, 8} {
			spec := mustSpec(t, teachersDTD, tc.cons).WithSolveOptions(WithSolverParallelism(par))
			res, err := spec.Consistent(context.Background())
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if res.Consistent != tc.want {
				t.Fatalf("par %d: Consistent = %v, want %v", par, res.Consistent, tc.want)
			}
			if res.Consistent {
				if res.Witness == nil {
					t.Fatalf("par %d: consistent verdict without witness", par)
				}
				if err := spec.Validate(context.Background(), res.Witness); err != nil {
					t.Fatalf("par %d: witness invalid: %v", par, err)
				}
			}
			if base == nil {
				base = res
			}
		}
	}
}

// TestInvalidOptionsTaxonomy: nonsense options reach the caller as a
// *SpecError{Stage: "options"} matching ErrInvalidOptions and map to 422,
// not a silent fallback to defaults.
func TestInvalidOptionsTaxonomy(t *testing.T) {
	spec := mustSpec(t, teachersDTD, sigma1).
		WithSolveOptions(WithMaxNodes(-5))
	_, err := spec.Consistent(context.Background())
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	var se *SpecError
	if !errors.As(err, &se) || se.Stage != "options" {
		t.Fatalf("err = %v, want *SpecError{Stage: options}", err)
	}
	if !strings.HasPrefix(se.Error(), "check: options:") {
		t.Errorf("Error() = %q, want check: options: prefix", se.Error())
	}
	if got := HTTPStatus(err); got != 422 {
		t.Errorf("HTTPStatus = %d, want 422", got)
	}

	// The functional constructors cannot produce invalid values:
	// WithSolverParallelism clamps below-1 to the automatic default.
	clamped := mustSpec(t, teachersDTD, sigma1).WithSolveOptions(WithSolverParallelism(-3))
	if got := clamped.SolveOptions().SolverParallelism; got != 0 {
		t.Fatalf("SolverParallelism = %d, want 0 after clamping", got)
	}
	if _, err := clamped.Consistent(context.Background()); err != nil {
		t.Fatalf("clamped view must solve cleanly: %v", err)
	}
}
