// Package xic (a fixture named after the root package, which is the only
// package errtaxonomy inspects) exercises the error-taxonomy contract:
// errors escaping exported functions must be, or wrap, a taxonomy type or
// declared sentinel.
package xic

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
)

// SpecError is the fixture's taxonomy root.
type SpecError struct {
	Stage string
	Err   error
}

func (e *SpecError) Error() string { return e.Stage }
func (e *SpecError) Unwrap() error { return e.Err }

// ErrUndecidable is a declared sentinel.
var ErrUndecidable = errors.New("undecidable")

// wrap is a same-package taxonomy helper.
func wrap(err error) error {
	if err == nil {
		return nil
	}
	return &SpecError{Stage: "solve", Err: err}
}

// badInternal is unexported, so raw errors are allowed here.
func badInternal() error { return errors.New("internal detail") }

func GoodWrap(s string) error {
	_, err := strconv.Atoi(s)
	return wrap(err)
}

func GoodSentinel() error {
	return ErrUndecidable
}

func GoodTyped() error {
	return &SpecError{Stage: "dtd"}
}

func GoodErrorf(s string) error {
	_, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("compile %q: %w", s, ErrUndecidable)
	}
	return nil
}

func GoodParam(err error) error {
	return err // caller-supplied errors are the caller's concern
}

// PathError is re-exported under an exported alias, the fixture's
// analogue of xic.InvalidDocumentError aliasing an internal declaration:
// the aliased type is a taxonomy member even though it is declared
// elsewhere.
type PathError = fs.PathError

func GoodAliasedComposite(name string) error {
	return &PathError{Op: "open", Path: name, Err: ErrUndecidable}
}

func GoodAliasedAs(s string) error {
	_, err := strconv.Atoi(s)
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return pe
	}
	return wrap(err)
}

func BadNew() error {
	return errors.New("boom") // want "untyped errors.New error escapes"
}

func BadRaw(s string) error {
	_, err := strconv.Atoi(s)
	if err != nil {
		return err // want "error from strconv.Atoi escapes"
	}
	return nil
}

func BadCall(s string) (int, error) {
	return strconv.Atoi(s) // want "error from strconv.Atoi escapes"
}

func BadErrorf(s string) error {
	_, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("parse %q: %v", s, err) // want "without %w-wrapping"
	}
	return nil
}

func Naked(s string) (err error) {
	_, err = strconv.Atoi(s)
	return // want "error from strconv.Atoi escapes"
}

// OldRaw predates the taxonomy. A deprecation notice earns no exemption.
//
// Deprecated: predates the taxonomy.
func OldRaw(s string) error {
	_, err := strconv.Atoi(s)
	return err // want "error from strconv.Atoi escapes"
}

func Suppressed(s string) error {
	_, err := strconv.Atoi(s)
	if err != nil {
		return err //xic:ignore errtaxonomy fixture keeps the raw conformance error
	}
	return nil
}
