// The unified v1 error envelope. Every non-2xx API response carries the
// same JSON shape:
//
//	{"error": {"code": "...", "field": "...", "message": "...", "request_id": "..."}}
//
// code is a stable machine-readable class (the closed set below), field is
// the offending request field when the failure is a validation error, and
// request_id attributes the failure to one request in the server logs.
// API handlers return errors; Server.api hands every one of them, and the
// middleware's own rejections, to writeError. classify is the one place an
// error becomes a status and a code, so the envelope cannot drift between
// routes.

package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"act/internal/acterr"
	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/reqid"
	"act/internal/script"
)

// The closed set of machine-readable error codes the v1 API serves.
const (
	// codeInvalidArgument: the request is the client's to fix (400).
	codeInvalidArgument = "invalid_argument"
	// codeUnsupportedVersion: a wire-envelope version this binary does not
	// speak (400).
	codeUnsupportedVersion = "unsupported_version"
	// codeTooLarge: body, batch or ingest over the configured limit (413).
	codeTooLarge = "too_large"
	// codeNotFound: the named resource does not exist (404).
	codeNotFound = "not_found"
	// codeConflict: a versioned update lost the race (409).
	codeConflict = "conflict"
	// codeOverloaded: shed before any work was accepted (429).
	codeOverloaded = "overloaded"
	// codeUnavailable: draining, or a cluster member the request needs is
	// out of reach (503).
	codeUnavailable = "unavailable"
	// codeDegraded: fleet persistence is degraded — the store is
	// read-only until a probe heals it, and writes are rejected (503).
	codeDegraded = "degraded"
	// codeTimeout: the request deadline lapsed after work was accepted (504).
	codeTimeout = "timeout"
	// codeInternal: an internal fault — a panic, or an evaluation error no
	// other class claims, answered on its first attempt (500).
	codeInternal = "internal"
	// codePartial: a cluster scatter-gather answered from the reachable
	// members only — some nodes were unreachable, so the document under-
	// counts their devices (206). The envelope rides next to the folded
	// summary; a client that needs the full fleet retries once the
	// missing members heal.
	codePartial = "partial"
	// codeInvalidScript: a /v1/script program failed to parse or faulted
	// at runtime — the program is the client's to fix (400).
	codeInvalidScript = "invalid_script"
	// codeScriptBudget: a /v1/script program was cut off at a hard
	// resource budget (steps, allocation, deadline, depth). Determinis-
	// tic, so also the client's to fix: shrink the program (400).
	codeScriptBudget = "script_budget"
)

// errorDetail is the envelope's inner object.
type errorDetail struct {
	Code string `json:"code"`
	// Field is the offending request field path when the failure is a
	// validation error ("logic[0].node", "query.top").
	Field     string `json:"field,omitempty"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// errorResponse is the JSON error body for every non-2xx API response.
type errorResponse struct {
	Error errorDetail `json:"error"`
}

// apiError is a failure whose envelope is fixed where it happens: a
// routing miss, a limit, a middleware rejection.
type apiError struct {
	status int
	detail errorDetail
}

func (e *apiError) Error() string { return e.detail.Message }

func newAPIError(status int, code, field, message string) *apiError {
	return &apiError{status, errorDetail{Code: code, Field: field, Message: message}}
}

var (
	errDraining   = newAPIError(http.StatusServiceUnavailable, codeUnavailable, "", "server is draining")
	errClusterOff = newAPIError(http.StatusNotFound, codeNotFound, "", "cluster mode is not enabled")
	errNoExporter = newAPIError(http.StatusNotFound, codeNotFound, "", "telemetry export is not configured on this server")
)

// badRequestError marks a request that failed before any typed
// validation could run (unparseable body, unknown wire field): whatever
// the cause, it is the client's to fix. A typed error in the chain still
// contributes its field path and version code, and a body over the limit
// is still 413.
type badRequestError struct{ error }

func (e badRequestError) Unwrap() error { return e.error }

func badRequest(err error) error { return badRequestError{err} }

// clusterPathError marks a failure of the cluster path (a scatter, a
// proxied hop, a two-phase step): there a transient fault — a dead peer,
// an open peer breaker — is the cluster's unavailability (503), not an
// internal fault.
type clusterPathError struct{ error }

func (e clusterPathError) Unwrap() error { return e.error }

func onClusterPath(err error) error {
	if err == nil {
		return nil
	}
	return clusterPathError{err}
}

// canceledError marks a canceled request context as a lapsed deadline
// (504) where the route treats the two alike; unmarked, a cancellation is
// an internal fault.
type canceledError struct{ error }

func (e canceledError) Unwrap() error { return e.error }

func (canceledError) Is(target error) bool { return target == context.DeadlineExceeded }

// classify is the one mapping from an error to its status and envelope.
// Order matters: fixed envelopes first (a member's relayed refusal is
// one), then limits, undecodable requests, the cluster path's own
// classes, and the typed taxonomy; anything else — a transient fault off
// the cluster path included — is 500/internal. The cluster
// classes outrank the deadline because a peer call the deadline cut off
// arrives wrapped as transient, and on the cluster path that is 503.
func classify(err error) (int, errorDetail) {
	var (
		ae     *apiError
		me     *cluster.MemberError
		tooBig *http.MaxBytesError
		badReq badRequestError
		cp     clusterPathError
		scrErr *script.Error
	)
	clusterPath := errors.As(err, &cp)
	switch {
	case errors.As(err, &ae):
		return ae.status, ae.detail
	case errors.As(err, &me):
		return me.Status, errorDetail{Code: me.Code, Field: me.Field, Message: me.Message}
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, errorDetail{Code: codeTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	case errors.Is(err, fleet.ErrTooMany):
		return http.StatusRequestEntityTooLarge, errorDetail{Code: codeTooLarge, Message: err.Error()}
	case errors.As(err, &badReq):
		return http.StatusBadRequest, invalidDetail(err)
	case clusterPath && cluster.IsConflict(err):
		return http.StatusConflict, errorDetail{Code: codeConflict, Message: err.Error()}
	case clusterPath && (errors.Is(err, cluster.ErrEpochMixed) || acterr.IsTransient(err)):
		return http.StatusServiceUnavailable, errorDetail{Code: codeUnavailable, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, errorDetail{Code: codeTimeout, Message: "request timed out: " + err.Error()}
	case errors.Is(err, fleet.ErrDegraded):
		return http.StatusServiceUnavailable, errorDetail{Code: codeDegraded, Message: err.Error()}
	case acterr.IsBudget(err):
		return http.StatusBadRequest, errorDetail{Code: codeScriptBudget, Message: err.Error()}
	case errors.As(err, &scrErr):
		return http.StatusBadRequest, errorDetail{Code: codeInvalidScript, Message: err.Error()}
	case acterr.IsInvalid(err):
		return http.StatusBadRequest, invalidDetail(err)
	}
	return http.StatusInternalServerError, errorDetail{Code: codeInternal, Message: err.Error()}
}

// invalidDetail is the 400 envelope of a client-fixable request: the
// version code when the chain names an unsupported version, and the field
// path of a typed validation error.
func invalidDetail(err error) errorDetail {
	det := errorDetail{Code: codeInvalidArgument, Message: err.Error()}
	if errors.Is(err, acterr.ErrUnsupportedVersion) {
		det.Code = codeUnsupportedVersion
	}
	var inv *acterr.InvalidSpecError
	if errors.As(err, &inv) {
		det.Field = inv.Field
	}
	return det
}

// writeError writes err's envelope and returns its code.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) string {
	status, det := classify(err)
	det.RequestID = reqid.From(r.Context())
	writeJSON(w, status, errorResponse{Error: det})
	return det.Code
}
