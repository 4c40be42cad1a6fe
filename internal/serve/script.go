// POST /v1/script: sandboxed scenario scripting. The handler runs an
// untrusted user program through the internal/script interpreter under
// the server's configured budgets and answers with the canonical script
// result envelope — byte-identical to what `act script` prints for the
// same program, the same way /v1/footprint matches `act`.
//
// The error split is three-way and closed:
//
//	invalid_script (400)  the program is broken: parse error, runtime
//	                      fault, bad scenario passed to footprint()
//	script_budget  (400)  a hard resource budget cut the program off;
//	                      deterministic, so the client's to fix
//	timeout        (504)  the request deadline lapsed (outranks the
//	                      script's own wall-clock budget)
//
// Transient infrastructure faults behave like every other handler:
// retried under the server policy, then 500/internal if they survive.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"act/internal/acterr"
	"act/internal/resilience"
	"act/internal/scenario"
	"act/internal/script"
)

// scriptRequest is the POST /v1/script body.
type scriptRequest struct {
	// Version is the scenario wire version the program targets (0 or 1).
	Version int `json:"version,omitempty"`
	// Source is the program text.
	Source string `json:"source"`
}

// scriptBudget resolves the server's script budget from config, leaving
// zero fields to the interpreter's documented defaults.
func (s *Server) scriptBudget() script.Budget {
	return script.Budget{
		MaxSteps:      s.cfg.ScriptMaxSteps,
		MaxAllocBytes: s.cfg.ScriptMaxBytes,
		Timeout:       s.cfg.ScriptTimeout,
	}
}

// handleScript evaluates one sandboxed program.
func (s *Server) handleScript(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.countScriptEval(codeTooLarge)
			s.writeErrorCode(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, "",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.countScriptEval(codeInvalidArgument)
		s.writeBadRequest(w, r, fmt.Errorf("reading request body: %w", err))
		return
	}
	var req scriptRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.countScriptEval(codeInvalidArgument)
		s.writeBadRequest(w, r, fmt.Errorf("parsing script request: %w", err))
		return
	}
	if req.Version != 0 && req.Version != scenario.Version {
		s.countScriptEval(codeUnsupportedVersion)
		s.writeError(w, r, &acterr.UnsupportedVersionError{Version: req.Version})
		return
	}
	if req.Source == "" {
		s.countScriptEval(codeInvalidArgument)
		s.writeError(w, r, acterr.Invalid("source", "a program is required"))
		return
	}

	opts := script.Options{Budget: s.scriptBudget()}
	start := time.Now()
	res, err := resilience.Retry(r.Context(), s.retryPolicy(fnvHash(req.Source)),
		func(ctx context.Context, _ int) (*script.Result, error) {
			return script.Eval(ctx, req.Source, opts)
		})
	s.mScriptDuration.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeScriptError(w, r, err)
		return
	}

	s.countScriptEval("ok")
	s.mScriptSteps.Observe(float64(res.Steps))
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		// The program produced an unencodable value (a function, a
		// reference cycle) — still the program's fault.
		s.countScriptEval(codeInvalidScript)
		s.writeErrorCode(w, r, http.StatusBadRequest, codeInvalidScript, "",
			"script result: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.mEncodeErrors.Inc()
	}
}

// writeScriptError maps an evaluation failure onto the wire taxonomy and
// counts it. Order matters: the caller's lapsed deadline outranks the
// budget classification (script.Eval already attributes Done to the
// right owner, but a retry layer can also surface the raw ctx error).
func (s *Server) writeScriptError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.countScriptEval(codeTimeout)
		s.writeErrorCode(w, r, http.StatusGatewayTimeout, codeTimeout, "",
			"request timed out: "+err.Error())
	case acterr.IsBudget(err):
		s.countScriptEval(codeScriptBudget)
		s.writeErrorCode(w, r, http.StatusBadRequest, codeScriptBudget, "", err.Error())
	case isScriptError(err):
		s.countScriptEval(codeInvalidScript)
		s.writeErrorCode(w, r, http.StatusBadRequest, codeInvalidScript, "", err.Error())
	default:
		s.countScriptEval(codeInternal)
		s.writeError(w, r, err)
	}
}

// isScriptError reports whether err is the program's own failure.
func isScriptError(err error) bool {
	var se *script.Error
	return errors.As(err, &se)
}

// countScriptEval bumps actd_script_evals_total{code}.
func (s *Server) countScriptEval(code string) {
	s.mScriptEvals.With(code).Add(1)
}
