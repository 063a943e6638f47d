package distal

import (
	"context"
	"errors"
	"fmt"
)

// ErrKind classifies a failure by the pipeline stage that produced it, so
// services can map failures to wire-level responses (HTTP status codes,
// retry decisions) without parsing error strings.
type ErrKind int

const (
	// KindUnknown is a failure outside the taxonomy (internal errors).
	KindUnknown ErrKind = iota
	// KindParse is a malformed request: the statement, a tensor format, a
	// shape, or a request field failed validation before scheduling.
	KindParse
	// KindSchedule is a scheduling failure: the schedule text did not parse,
	// or a command was rejected by the scheduling language.
	KindSchedule
	// KindCompile is a lowering failure: the scheduled statement could not
	// be compiled to a runtime program.
	KindCompile
	// KindExec is an execution failure: the compiled program failed while
	// running or simulating (unsatisfiable requirement, unbound data, ...).
	KindExec
	// KindInput is a well-formed request whose data does not fit the plan:
	// a wire-decoded tensor whose shape or rank disagrees with the
	// request's declared shapes, or a missing/extra tensor frame. Distinct
	// from KindParse (malformed bytes) so services can map it to 422.
	KindInput
	// KindCanceled reports that the caller's context was canceled or its
	// deadline expired before the operation finished. Errors of this kind
	// also match errors.Is against context.Canceled or
	// context.DeadlineExceeded, whichever applied.
	KindCanceled
)

// String returns the kind's stable wire name.
func (k ErrKind) String() string {
	switch k {
	case KindParse:
		return "parse"
	case KindSchedule:
		return "schedule"
	case KindCompile:
		return "compile"
	case KindExec:
		return "exec"
	case KindInput:
		return "input"
	case KindCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Error is the structured failure type of the public API: every error
// returned by Session.Compile, Computation.Compile, Plan.Simulate, and
// Binding.Run is (or wraps) an *Error. It is errors.Is/As-compatible:
//
//	var de *distal.Error
//	if errors.As(err, &de) && de.Kind == distal.KindSchedule { ... }
//	if errors.Is(err, context.Canceled) { ... }   // Kind == KindCanceled
type Error struct {
	// Kind is the failure class.
	Kind ErrKind
	// Op names the failing operation ("compile", "simulate", "run", ...).
	Op string
	// Err is the underlying cause, preserved for errors.Is/As chains.
	Err error
}

func (e *Error) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("distal: %s: %s error", e.Op, e.Kind)
	}
	return fmt.Sprintf("distal: %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches another *Error by Kind (and by Op when the target sets one),
// so callers can test errors.Is(err, &distal.Error{Kind: distal.KindCanceled})
// without knowing the concrete cause.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	if t.Kind != e.Kind {
		return false
	}
	return t.Op == "" || t.Op == e.Op
}

// KindOf classifies any error: the Kind of the outermost *Error in its
// chain, KindCanceled for bare context errors, KindUnknown otherwise (nil
// errors have no kind and report KindUnknown).
func KindOf(err error) ErrKind {
	var de *Error
	if errors.As(err, &de) {
		return de.Kind
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return KindCanceled
	}
	return KindUnknown
}

// wrapErr classifies err under kind at operation op. Context errors always
// classify as KindCanceled regardless of the suggested kind, and an error
// that is already an *Error keeps its original classification (the first
// boundary to classify wins).
func wrapErr(kind ErrKind, op string, err error) error {
	if err == nil {
		return nil
	}
	var de *Error
	if errors.As(err, &de) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		kind = KindCanceled
	}
	return &Error{Kind: kind, Op: op, Err: err}
}
