// Package script is the sandboxed scenario-scripting engine: a tiny,
// stdlib-only interpreter (lexer → AST → tree-walking evaluator) that lets
// untrusted user programs construct scenarios, run sweeps and fold custom
// metrics against the ACT model, under hard per-evaluation resource
// budgets. It is the engine behind actd's POST /v1/script and the
// `act script` subcommand, which emit byte-identical result envelopes.
//
// The language is a deliberately small expression/loop calculus over JSON
// values — numbers (float64), strings, bools, nil, lists and
// insertion-ordered maps — plus `let`, assignment, `if`/`else`, `for`
// (for-in and while forms), `fn` definitions and lambdas, `return`,
// `break`/`continue`, and a closed set of builtins. Every JSON document is
// a valid expression, so a marshaled scenario pastes straight into a
// program. See DESIGN.md §14 for the grammar.
//
// The host API exposes the model facade:
//
//	footprint(spec)    evaluate one scenario map → result map
//	footprint(list)    evaluate a list of scenario maps through the
//	                   columnar batch engine → list of result maps
//	footprint_doc(s)   the canonical result document, byte-identical to
//	                   `act -format json` / POST /v1/footprint, as a string
//	pareto(pts, axes)  non-dominated subset of point maps (lower is better)
//	rank(metric, cs)   Table 2 metric ranking over candidate maps
//	emit(name, value)  append a named value to the result envelope
//
// Sandboxing is budget-based, not capability-based: the interpreter can
// reach nothing but its builtins (no imports, no I/O, no reflection), and
// four hard budgets bound what a hostile program can consume — an
// evaluation step count, an allocation estimate in bytes, a wall-clock
// deadline propagated through context, and a call-depth cap. Exhausting
// any of them aborts evaluation with a typed *acterr.BudgetError (the
// `script_budget` wire code); everything else a broken program can do
// surfaces as a *script.Error (the `invalid_script` wire code). The
// evaluator spawns no goroutines of its own, and pareto's fan-out over a
// large point set joins its workers before returning, so a cut-off program
// leaks nothing.
package script

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"act/internal/faultinject"
	"act/internal/report"
)

// Budget is the hard resource envelope one evaluation runs under. Zero
// fields take the Default values; a negative MaxSteps/MaxAllocBytes/
// MaxDepth or Timeout disables that single limit. actd passes negative
// -script-max-steps, -script-max-bytes and -script-timeout values straight
// through, so its operator can disable those limits for every request.
type Budget struct {
	// MaxSteps caps evaluator steps: one per AST node evaluated, plus
	// surcharges for host calls and bulk builtins (default 5,000,000).
	MaxSteps int64
	// MaxAllocBytes caps the evaluation's allocation estimate: bytes
	// charged for every string, list element, map entry and result
	// document a program materializes (default 16 MiB).
	MaxAllocBytes int64
	// MaxDepth caps the call stack (default 64 frames).
	MaxDepth int
	// Timeout is the wall-clock deadline, applied as a context timeout
	// inside Eval (default 5s).
	Timeout time.Duration
	// MaxSourceBytes caps the program text itself (default 1 MiB).
	MaxSourceBytes int
}

// Default budget values.
const (
	DefaultMaxSteps       = 5_000_000
	DefaultMaxAllocBytes  = 16 << 20
	DefaultMaxDepth       = 64
	DefaultTimeout        = 5 * time.Second
	DefaultMaxSourceBytes = 1 << 20
)

// withDefaults resolves zero fields to the documented defaults and
// negative fields to "unlimited".
func (b Budget) withDefaults() Budget {
	if b.MaxSteps == 0 {
		b.MaxSteps = DefaultMaxSteps
	}
	if b.MaxAllocBytes == 0 {
		b.MaxAllocBytes = DefaultMaxAllocBytes
	}
	if b.MaxDepth == 0 {
		b.MaxDepth = DefaultMaxDepth
	}
	if b.Timeout == 0 {
		b.Timeout = DefaultTimeout
	}
	if b.MaxSourceBytes == 0 {
		b.MaxSourceBytes = DefaultMaxSourceBytes
	}
	return b
}

// Options tunes one evaluation.
type Options struct {
	Budget Budget
}

// Emit is one emit(name, value) call, in program order. The value is a
// deep copy taken at emit time, so later mutation of the emitted
// structure does not rewrite history.
type Emit struct {
	Name  string
	Value Value
}

// Result is the outcome of one evaluation: the program's final value (the
// last top-level expression statement, or an explicit top-level return),
// the ordered emits, and the deterministic step count consumed.
type Result struct {
	Value Value
	Emits []Emit
	Steps int64
}

// Encode writes the canonical script result envelope: two-space-indented
// JSON with a trailing newline, fields in the frozen order
//
//	{"output": ..., "emits": [{"name": ..., "value": ...}, ...], "steps": N}
//
// with "emits" omitted when the program emitted nothing. The library, POST
// /v1/script and `act script` all funnel through this one encoder, which
// is what makes the three surfaces byte-identical. Step counts are
// deterministic for a given program and input, so they are safe to pin in
// golden files.
func (r *Result) Encode(w io.Writer) error {
	var buf []byte
	buf = append(buf, `{`...)
	buf = append(buf, "\n  \"output\": "...)
	var err error
	if buf, err = appendValueJSON(buf, r.Value, 1); err != nil {
		return err
	}
	if len(r.Emits) > 0 {
		buf = append(buf, ",\n  \"emits\": ["...)
		for i, e := range r.Emits {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, "\n    {\n      \"name\": "...)
			buf = report.AppendJSONString(buf, e.Name)
			buf = append(buf, ",\n      \"value\": "...)
			if buf, err = appendValueJSON(buf, e.Value, 3); err != nil {
				return err
			}
			buf = append(buf, "\n    }"...)
		}
		buf = append(buf, "\n  ]"...)
	}
	buf = append(buf, ",\n  \"steps\": "...)
	buf = strconv.AppendInt(buf, r.Steps, 10)
	buf = append(buf, "\n}\n"...)
	_, err = w.Write(buf)
	return err
}

// Eval parses and runs one program under the budget. The returned error
// is either a *script.Error (a parse or runtime failure — the program's
// to fix), a *acterr.BudgetError (a hard limit cut the program off), the
// caller context's error (an outer deadline or cancellation, which
// outranks the script's own budget deadline), or a transient
// infrastructure fault injected at the script.eval chaos site.
func Eval(ctx context.Context, src string, opts Options) (*Result, error) {
	if err := faultinject.Visit(ctx, faultinject.SiteScriptEval); err != nil {
		return nil, err
	}
	b := opts.Budget.withDefaults()
	if b.MaxSourceBytes > 0 && len(src) > b.MaxSourceBytes {
		return nil, &Error{Msg: fmt.Sprintf("program is %d bytes, over the %d-byte limit", len(src), b.MaxSourceBytes)}
	}
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ectx := ctx
	if b.Timeout > 0 {
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ctx, b.Timeout)
		defer cancel()
	}
	in := &interp{
		ctx:      ectx,
		outerCtx: ctx,
		budget:   b,
	}
	v, err := in.run(prog)
	if err != nil {
		return nil, err
	}
	return &Result{Value: v, Emits: in.emits, Steps: in.steps}, nil
}
