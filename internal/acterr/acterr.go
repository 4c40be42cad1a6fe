// Package acterr defines the typed validation errors the model packages
// share and the public act facade re-exports. The split they encode is the
// one a serving layer needs: errors a client can fix by editing their
// request (an unknown process node, an out-of-range field, an unsupported
// envelope version) versus internal failures. actd maps the former to HTTP
// 400 and the latter to 500; cmd/act uses the field path to point at the
// offending scenario field.
package acterr

import (
	"context"
	"errors"
	"fmt"
)

// ErrUnknownNode reports a process-node or technology name that no
// characterization table matches. Matched with errors.Is.
var ErrUnknownNode = errors.New("unknown process node")

// ErrUnsupportedVersion is the errors.Is target of UnsupportedVersionError.
var ErrUnsupportedVersion = errors.New("unsupported scenario version")

// UnsupportedVersionError reports a scenario envelope version this library
// does not speak. errors.Is(err, ErrUnsupportedVersion) matches it.
type UnsupportedVersionError struct {
	Version int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("unsupported scenario version %d (this library speaks version 1)", e.Version)
}

// Is matches the ErrUnsupportedVersion sentinel.
func (e *UnsupportedVersionError) Is(target error) bool { return target == ErrUnsupportedVersion }

// InvalidSpecError reports a validation failure at a specific field of a
// request or scenario. Field is a dotted JSON path ("logic[0].area_mm2",
// "usage.app_hours"); packages below the JSON layer use their own field
// names and callers re-root them with Prefix.
type InvalidSpecError struct {
	Field  string
	Reason string
	// Err is the optional underlying cause, exposed via Unwrap.
	Err error
}

func (e *InvalidSpecError) Error() string {
	msg := e.Message()
	if e.Field == "" {
		return fmt.Sprintf("invalid spec: %s", msg)
	}
	return fmt.Sprintf("invalid spec field %s: %s", e.Field, msg)
}

// Message returns the failure description without the field path.
func (e *InvalidSpecError) Message() string {
	if e.Reason != "" {
		return e.Reason
	}
	if e.Err != nil {
		return e.Err.Error()
	}
	return "invalid value"
}

func (e *InvalidSpecError) Unwrap() error { return e.Err }

// Invalid constructs an InvalidSpecError with a formatted reason.
func Invalid(field, format string, args ...any) *InvalidSpecError {
	return &InvalidSpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Prefix re-roots err under a field path. If err carries an
// InvalidSpecError the inner path is appended ("logic[0]" + "area_mm2" →
// "logic[0].area_mm2"); any other error becomes an InvalidSpecError at
// prefix wrapping err — use it only where err is known to be the client's
// fault (a failed technology lookup, a bad fab option). Transient
// infrastructure faults and context cancellations keep their class: they
// gain the path as plain context but are never re-labelled as the
// client's mistake.
func Prefix(prefix string, err error) error {
	if err == nil {
		return nil
	}
	if IsTransient(err) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	var inv *InvalidSpecError
	if errors.As(err, &inv) {
		field := prefix
		if inv.Field != "" {
			field = prefix + "." + inv.Field
		}
		return &InvalidSpecError{Field: field, Reason: inv.Reason, Err: inv.Err}
	}
	return &InvalidSpecError{Field: prefix, Err: err}
}

// IsInvalid reports whether err is a client-fixable spec problem — an
// invalid field, an unknown node, or an unsupported version — rather than
// an internal failure. This is the 400-vs-500 split actd serves. A
// transient infrastructure fault is never the client's fault, so it is
// excluded even when some layer wrapped it in an InvalidSpecError.
func IsInvalid(err error) bool {
	if IsTransient(err) {
		return false
	}
	var inv *InvalidSpecError
	return errors.As(err, &inv) ||
		errors.Is(err, ErrUnknownNode) ||
		errors.Is(err, ErrUnsupportedVersion)
}

// BudgetError reports an exhausted script resource budget: the evaluator
// cut an untrusted program off at a hard limit (step count, allocation
// estimate, wall-clock deadline, call depth). It is deterministic and the
// client's to fix — shrink the program or raise the budget — so actd maps
// it to 400 with the `script_budget` envelope code, never to a retryable
// 5xx. Matched with errors.As / IsBudget.
type BudgetError struct {
	// Resource names the exhausted budget: "steps", "alloc", "deadline"
	// or "depth".
	Resource string
	// Limit is the configured cap in the resource's unit (steps, bytes,
	// nanoseconds, frames). Zero when the unit has no meaningful scalar.
	Limit int64
}

func (e *BudgetError) Error() string {
	if e.Limit > 0 {
		return fmt.Sprintf("script budget exhausted: %s limit %d reached", e.Resource, e.Limit)
	}
	return fmt.Sprintf("script budget exhausted: %s limit reached", e.Resource)
}

// IsBudget reports whether err carries a BudgetError anywhere in its
// chain — the "program hit a hard resource limit" class.
func IsBudget(err error) bool {
	var b *BudgetError
	return errors.As(err, &b)
}

// TransientError marks a failure as transient infrastructure trouble — a
// fault in the worker pool, the footprint cache, a characterization
// lookup or a peer call — that is expected to succeed if simply tried again.
// The cluster peer client retries exactly this class and nothing else;
// validation errors are deterministic and must never be retried. actd's
// own handlers answer it 500 on the first attempt, or 503 on the cluster
// path.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string {
	if e.Err == nil {
		return "transient fault"
	}
	return "transient: " + e.Err.Error()
}

func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as a TransientError. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err carries a TransientError anywhere in its
// chain — the "safe to retry" class.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}
