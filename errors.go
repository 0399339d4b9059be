package xic

import (
	"errors"
	"fmt"

	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/xmltree"
)

// ErrUndecidable is returned for constraint sets in the classes the paper
// proves undecidable (multi-attribute keys mixed with foreign keys or
// inclusion constraints, Theorem 3.1). Match it with errors.Is.
var ErrUndecidable = core.ErrUndecidable

// ErrCanceled is returned when a check is abandoned because its
// context.Context was cancelled or its deadline expired before the NP
// search finished. Errors returned by Spec methods match both ErrCanceled
// and the context's own error (context.Canceled or
// context.DeadlineExceeded) under errors.Is, so callers can use whichever
// sentinel fits their error handling.
var ErrCanceled = core.ErrCanceled

// ErrNothingToDiagnose is returned by Spec.Diagnose when the specification
// is consistent, so there is no inconsistency to explain. Match it with
// errors.Is; serving layers map it to a client-state status rather than an
// internal failure.
var ErrNothingToDiagnose = core.ErrNothingToDiagnose

// ErrInvalidOptions is returned when a check is handed nonsense solver
// options — a negative MaxNodes or a negative SolverParallelism — instead
// of silently substituting defaults. Errors from Spec methods wrap it in a
// *SpecError with Stage "options"; match it with errors.Is.
var ErrInvalidOptions = ilp.ErrInvalidOptions

// HTTPStatus maps the package's error taxonomy onto HTTP status codes, for
// serving frontends such as cmd/xicd. The values equal the net/http
// StatusXxx constants (the package avoids importing net/http for three
// integers):
//
//   - nil — 200 OK
//   - *ParseError (bad DTD/constraint/document syntax) — 400 Bad Request
//   - *SpecError in a compile stage (valid syntax, invalid specification),
//     *SpecError{Stage: "options"} (ErrInvalidOptions: nonsense solver
//     options) and ErrUndecidable — 422 Unprocessable Entity
//   - ErrNothingToDiagnose — 409 Conflict
//   - ErrCanceled (deadline or cancellation during a check) — 504 Gateway
//     Timeout
//   - *SpecError{Stage: "solve"} and anything unrecognised — 500 Internal
//     Server Error
func HTTPStatus(err error) int {
	if err == nil {
		return 200
	}
	switch {
	case errors.Is(err, ErrCanceled):
		return 504
	case errors.Is(err, ErrUndecidable):
		return 422
	case errors.Is(err, ErrNothingToDiagnose):
		return 409
	}
	var pe *ParseError
	if errors.As(err, &pe) {
		return 400
	}
	var se *SpecError
	if errors.As(err, &se) {
		if se.Stage == "solve" {
			return 500
		}
		return 422
	}
	return 500
}

// ParseError is a syntax error in one of the three textual inputs, with
// the position of the offending construct. It replaces the stringly
// errors of the pre-Spec API; match it with errors.As.
type ParseError struct {
	// Input names the input kind: "dtd", "constraints" or "document".
	Input string
	// Line is the 1-based line of the error within the input.
	Line int
	// Offset is the 0-based byte offset of the offending token or line
	// start within the input; -1 in the rare case that the underlying
	// parser reports only a line.
	Offset int
	// Msg describes the error without position prefixes.
	Msg string

	err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s: line %d: %s", e.Input, e.Line, e.Msg)
}

// Unwrap returns the underlying parser error.
func (e *ParseError) Unwrap() error { return e.err }

// wrapDTDError lifts structured internal DTD parse errors into the public
// taxonomy, passing semantic errors (duplicate declarations, Check
// failures) through untouched.
func wrapDTDError(err error) error {
	if err == nil {
		return nil
	}
	var pe *dtd.ParseError
	if errors.As(err, &pe) {
		return &ParseError{Input: "dtd", Line: pe.Line, Offset: pe.Offset, Msg: pe.Msg, err: err}
	}
	return err
}

// wrapConstraintsError lifts structured constraint parse errors into the
// public taxonomy.
func wrapConstraintsError(err error) error {
	if err == nil {
		return nil
	}
	var pe *constraint.ParseError
	if errors.As(err, &pe) {
		return &ParseError{Input: "constraints", Line: pe.Line, Offset: pe.Offset, Msg: pe.Err.Error(), err: err}
	}
	return err
}

// wrapDocumentError lifts XML document errors into the public taxonomy.
// Every syntax and structure error of the one document reader is an
// *xmltree.ParseError carrying the line and the byte offset at which
// reading stopped; anything else (a failing reader) passes through.
func wrapDocumentError(err error) error {
	if err == nil {
		return nil
	}
	var de *xmltree.ParseError
	if errors.As(err, &de) {
		off := int(de.Offset)
		if int64(off) != de.Offset {
			off = -1 // document offset exceeds int on this platform
		}
		return &ParseError{Input: "document", Line: de.Line, Offset: off, Msg: de.Msg, err: err}
	}
	return err
}

// SpecError reports why Compile rejected a specification, or that a check
// failed for an internal reason rather than a property of the input. Match
// it with errors.As; Unwrap exposes the underlying cause (for example a DTD
// validation error).
type SpecError struct {
	// Stage is the stage that failed: "dtd" (DTD validation), "constraints"
	// (constraint validation against the DTD), "encode" (building the
	// cardinality-encoding template), "options" (invalid solver options
	// handed to a check) or "solve" (an internal solver error during a
	// check).
	Stage string
	Err   error
}

func (e *SpecError) Error() string {
	if e.Stage == "solve" || e.Stage == "options" {
		return fmt.Sprintf("check: %s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("compile: %s: %v", e.Stage, e.Err)
}

func (e *SpecError) Unwrap() error { return e.Err }

// wrapSolveError lifts internal-solver failures bubbling out of the
// decision procedures into the public taxonomy as a *SpecError with Stage
// "solve". These signal a solver bug (formerly a panic deep in the simplex)
// rather than anything about the caller's constraints, so they get their
// own stage instead of leaking as stringly internal errors.
func wrapSolveError(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ilp.ErrInternal) {
		return &SpecError{Stage: "solve", Err: err}
	}
	if errors.Is(err, ilp.ErrInvalidOptions) {
		return &SpecError{Stage: "options", Err: err}
	}
	return err
}

// ViolationError reports the first constraint a document violates during
// dynamic validation.
type ViolationError struct {
	Violated Constraint
}

func (e *ViolationError) Error() string {
	return "xic: document violates constraint " + e.Violated.String()
}
