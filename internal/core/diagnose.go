package core

import (
	"context"
	"errors"

	"xic/internal/constraint"
	"xic/internal/ilp"
)

// ErrNothingToDiagnose is returned by DiagnoseContext when the specification is
// consistent: there is no inconsistency to explain. It is a sentinel so
// serving layers can distinguish this client-state condition from real
// failures.
var ErrNothingToDiagnose = errors.New("core: specification is consistent; nothing to diagnose")

// Diagnosis explains an inconsistent specification.
type Diagnosis struct {
	// DTDEmpty is true when the DTD alone has no finite valid tree — no
	// constraint set could help (the paper's D2 situation).
	DTDEmpty bool
	// Core is a minimal subset of the constraint set that is still
	// inconsistent with the DTD: removing any single member makes it
	// consistent. Empty iff DTDEmpty.
	Core []constraint.Constraint
}

// DiagnoseContext explains why a specification is inconsistent by
// computing a minimal inconsistent core via the standard deletion filter:
// each constraint is dropped iff the remainder stays inconsistent. The
// result needs |Σ|+1 consistency checks. It errors if the specification is in an
// undecidable class or actually consistent.
//
// This is a first step toward the "distinguish good XML design from bad"
// direction in the paper's conclusion: the core names exactly the
// constraints whose interaction with the DTD's cardinality structure is
// unsatisfiable (for Σ1 over D1, all three constraints — the two keys and
// the foreign key jointly force |subject| ≤ |teacher| < |subject|... the
// subject key plus foreign key alone suffice, so the core has two members).
//
// The per-DTD work is paid once for all |Σ|+1 consistency checks, and
// cancellation aborts them with an error matching ErrCanceled.
func (c *Checker) DiagnoseContext(ctx context.Context, set []constraint.Constraint, opt *Options) (*Diagnosis, error) {
	ctx = orBackground(ctx)
	if !c.eng.d.HasValidTree() {
		return &Diagnosis{DTDEmpty: true}, nil
	}
	decide := func(s []constraint.Constraint) (bool, error) {
		res, err := c.consistentChecked(ctx, s, &Options{Solver: opt.solverOptions(), SkipWitness: true})
		if err != nil {
			return false, err
		}
		return res.Consistent, nil
	}
	consistent, err := decide(set)
	if err != nil {
		return nil, err
	}
	if consistent {
		return nil, ErrNothingToDiagnose
	}
	core := append([]constraint.Constraint(nil), set...)
	for i := 0; i < len(core); {
		without := make([]constraint.Constraint, 0, len(core)-1)
		without = append(without, core[:i]...)
		without = append(without, core[i+1:]...)
		stillConsistent, err := decide(without)
		if err != nil {
			return nil, err
		}
		if !stillConsistent {
			core = without // remainder is still inconsistent: drop core[i]
		} else {
			i++
		}
	}
	return &Diagnosis{Core: core}, nil
}

func (o *Options) solverOptions() (out ilp.Options) {
	if o != nil {
		return o.Solver
	}
	return out
}
