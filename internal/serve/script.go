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
// Any other failure is 500/internal on its first attempt, as on every
// other handler: the interpreter is deterministic, so a rerun could only
// fail the same way.

package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"time"

	"act/internal/acterr"
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

var scriptKeys = []string{"version", "source"}

// decodeScript decodes a script body in one pass through the scenario
// package's fast decoder, each case mirroring a json tag above. A body
// that leaves the decoder's subset (see scenario/fastwire.go) goes to
// decodeJSON instead, which then answers, errors included.
func decodeScript(body []byte) (req scriptRequest, err error) {
	d := scenario.NewFastDecoder(body)
	d.Object(scriptKeys, func(key string) {
		switch key {
		case "version":
			req.Version = d.Int()
		case "source":
			req.Source = d.String()
		}
	})
	if d.End() {
		return req, nil
	}
	req = scriptRequest{}
	return req, decodeJSON(body, "script request", &req)
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

// handleScript evaluates one sandboxed program. Every request lands once
// in actd_script_evals_total{code}: "ok", or the envelope code its
// failure answers with.
func (s *Server) handleScript(w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		det := errorDetail{Code: "ok"}
		if err != nil {
			_, det = classify(err)
		}
		s.mScriptEvals.With(det.Code).Add(1)
	}()
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	req, err := decodeScript(body)
	if err != nil {
		return err
	}
	if req.Version != 0 && req.Version != scenario.Version {
		return &acterr.UnsupportedVersionError{Version: req.Version}
	}
	if req.Source == "" {
		return acterr.Invalid("source", "a program is required")
	}

	opts := script.Options{Budget: s.scriptBudget()}
	start := time.Now()
	res, err := script.Eval(r.Context(), req.Source, opts)
	s.mScriptDuration.Observe(time.Since(start).Seconds())
	if errors.Is(err, context.Canceled) {
		// The caller's lapsed or canceled request outranks the budget
		// classification: both are the request's deadline here (504).
		return canceledError{err}
	}
	if err != nil {
		return err
	}

	s.mScriptSteps.Observe(float64(res.Steps))
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		// The program produced an unencodable value (a function, a
		// reference cycle) — still the program's fault.
		return newAPIError(http.StatusBadRequest, codeInvalidScript, "", "script result: "+err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.mEncodeErrors.Inc()
	}
	return nil
}
