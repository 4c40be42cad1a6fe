package script

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"act/internal/acterr"
	"act/internal/colbatch"
	"act/internal/scenario"
)

// wantBudget asserts err is a *acterr.BudgetError for the given resource.
func wantBudget(t *testing.T, err error, resource string) *acterr.BudgetError {
	t.Helper()
	if err == nil {
		t.Fatal("expected a budget error, got nil")
	}
	var b *acterr.BudgetError
	if !errors.As(err, &b) {
		t.Fatalf("error is %T (%v), want *acterr.BudgetError", err, err)
	}
	if b.Resource != resource {
		t.Fatalf("budget resource = %q, want %q (err: %v)", b.Resource, resource, err)
	}
	return b
}

// checkNoGoroutineLeak snapshots the goroutine count and registers a
// cleanup asserting the evaluation left none behind.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Allow the runtime a moment to retire finished goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	})
}

func TestBudgetStepLimitMidLoop(t *testing.T) {
	checkNoGoroutineLeak(t)
	_, err := Eval(context.Background(), "let i = 0\nfor true { i = i + 1 }", Options{
		Budget: Budget{MaxSteps: 10_000},
	})
	b := wantBudget(t, err, "steps")
	if b.Limit != 10_000 {
		t.Fatalf("limit = %d, want 10000", b.Limit)
	}
	if !acterr.IsBudget(err) {
		t.Fatal("IsBudget = false")
	}
	if acterr.IsInvalid(err) {
		t.Fatal("a budget error must not classify as a client spec error")
	}
}

func TestBudgetDefaultStepsStopInfiniteLoop(t *testing.T) {
	checkNoGoroutineLeak(t)
	start := time.Now()
	_, err := Eval(context.Background(), "for true { }", Options{})
	wantBudget(t, err, "steps")
	// The default 5M-step budget on an empty loop must trip in far
	// less than the 5s wall-clock default.
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("step budget took %v to trip", d)
	}
}

func TestBudgetAllocCapOnListAppend(t *testing.T) {
	checkNoGoroutineLeak(t)
	// The classic alloc bomb: double a list until memory runs out.
	// The value-size cap must cut it off long before the step budget.
	src := `let l = ["xxxxxxxxxxxxxxxx"]
for true { l = append(l, l[0] + l[0]) }`
	_, err := Eval(context.Background(), src, Options{
		Budget: Budget{MaxAllocBytes: 1 << 16, MaxSteps: 100_000_000},
	})
	wantBudget(t, err, "alloc")
}

func TestBudgetAllocCapOnRange(t *testing.T) {
	checkNoGoroutineLeak(t)
	_, err := Eval(context.Background(), "range(1000000000)", Options{
		Budget: Budget{MaxAllocBytes: 1 << 20, MaxSteps: 1 << 40},
	})
	wantBudget(t, err, "alloc")
	// And the extreme form dies on steps before the int conversion
	// could misbehave.
	_, err = Eval(context.Background(), "range(1e18)", Options{
		Budget: Budget{MaxAllocBytes: 1 << 20},
	})
	var b *acterr.BudgetError
	if !errors.As(err, &b) {
		t.Fatalf("range(1e18): %T (%v)", err, err)
	}
}

func TestBudgetDepthCapOnRecursion(t *testing.T) {
	checkNoGoroutineLeak(t)
	src := "fn f(n) { return f(n + 1) }\nf(0)"
	_, err := Eval(context.Background(), src, Options{
		Budget: Budget{MaxDepth: 32},
	})
	b := wantBudget(t, err, "depth")
	if b.Limit != 32 {
		t.Fatalf("limit = %d, want 32", b.Limit)
	}
	// Default depth also holds.
	_, err = Eval(context.Background(), src, Options{})
	wantBudget(t, err, "depth")
}

func TestBudgetDeadlineMidLoop(t *testing.T) {
	checkNoGoroutineLeak(t)
	start := time.Now()
	_, err := Eval(context.Background(), "let i = 0\nfor true { i = i + 1 }", Options{
		Budget: Budget{Timeout: 50 * time.Millisecond, MaxSteps: -1},
	})
	elapsed := time.Since(start)
	wantBudget(t, err, "deadline")
	// Must cut off in well under 2x the configured timeout.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("deadline took %v to trip (timeout 50ms)", elapsed)
	}
}

func TestBudgetDeadlineMidHostCall(t *testing.T) {
	checkNoGoroutineLeak(t)
	// A single footprint() call over a large batch: the deadline must
	// interrupt between colbatch chunks, not wait for the whole sweep.
	spec := scenario.Example()
	wire, err := scenario.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := `let spec = ` + string(wire) + `
let specs = []
for i in range(4000) { specs = append(specs, spec) }
footprint(specs)`
	start := time.Now()
	_, err = Eval(context.Background(), src, Options{
		Budget: Budget{Timeout: 30 * time.Millisecond, MaxSteps: -1, MaxAllocBytes: -1},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine evaluated 4000 scenarios inside 30ms; cannot exercise mid-call cutoff")
	}
	wantBudget(t, err, "deadline")
	if elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to trip mid-host-call", elapsed)
	}
}

func TestOuterContextOutranksBudget(t *testing.T) {
	checkNoGoroutineLeak(t)
	// A canceled caller context must surface as the context's error,
	// not be mislabeled as the script's own budget.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Eval(ctx, "for true { }", Options{Budget: Budget{MaxSteps: -1, Timeout: time.Hour}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if acterr.IsBudget(err) {
		t.Fatal("caller cancellation must not be classified as a script budget error")
	}

	// Same for an outer deadline shorter than the script budget.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	_, err = Eval(dctx, "for true { }", Options{Budget: Budget{MaxSteps: -1, Timeout: time.Hour}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if acterr.IsBudget(err) {
		t.Fatal("outer deadline must not be classified as a script budget error")
	}
}

func TestBudgetAdversarialCorpus(t *testing.T) {
	// The seeded adversarial corpus from the acceptance criteria:
	// infinite loop, alloc bomb, deep recursion. Every one must be cut
	// off by a budget in under 2x the configured timeout with a typed
	// error. Run with -race in verify-extended.
	checkNoGoroutineLeak(t)
	const timeout = 200 * time.Millisecond
	budget := Budget{Timeout: timeout}
	for _, src := range adversarialCorpus {
		src := src
		start := time.Now()
		_, err := Eval(context.Background(), src, Options{Budget: budget})
		elapsed := time.Since(start)
		if err == nil {
			t.Errorf("adversarial program %q completed successfully", src)
			continue
		}
		var b *acterr.BudgetError
		if !errors.As(err, &b) {
			t.Errorf("adversarial program %q died with %T (%v), want *acterr.BudgetError", src, err, err)
			continue
		}
		if elapsed >= 2*timeout {
			t.Errorf("adversarial program %q took %v, over 2x the %v timeout", src, elapsed, timeout)
		}
	}
}

// adversarialCorpus is the committed set of hostile programs the budgets
// must dispatch. Shared with FuzzScriptEval's seed corpus.
var adversarialCorpus = []string{
	// Infinite loops, plain and nested.
	"for true { }",
	"let i = 0\nfor true { i = i + 1 }",
	"for true { for true { } }",
	// Alloc bombs: exponential string growth, giant range, map flood.
	`let s = "x"` + "\nfor true { s = s + s }",
	"let l = []\nfor true { l = append(l, range(1000)) }",
	"range(100000000)",
	`let m = {}` + "\nlet i = 0\nfor true { m[str(i)] = i\ni = i + 1 }",
	// Deep recursion, direct and mutual.
	"fn f(n) { return f(n + 1) }\nf(0)",
	"fn a(n) { return b(n) }\nfn b(n) { return a(n) }\na(0)",
	// Recursion that also allocates on the way down.
	"fn f(l) { return f(append(l, len(l))) }\nf([])",
}

func TestBudgetErrorsAreTyped(t *testing.T) {
	// A budget error must never read as a parse/runtime script error,
	// so the service maps it to script_budget and not invalid_script.
	_, err := Eval(context.Background(), "for true { }", Options{Budget: Budget{MaxSteps: 100}})
	var se *Error
	if errors.As(err, &se) {
		t.Fatalf("budget error also matches *script.Error: %v", err)
	}
	if !strings.Contains(err.Error(), "steps") {
		t.Fatalf("error text %q does not name the resource", err)
	}
}

// hostCharge declares what one host builtin bills on top of the
// interpreter's per-node steps, for a representative call: the step
// surcharge and the byte charge, given the call's arguments and result.
type hostCharge struct {
	call  string // the arguments, as a script list literal
	steps func(args []Value, out Value) int64
	bytes func(t *testing.T, args []Value, out Value) int64
}

const (
	chargeSpec = `{"name": "soc", "logic": [{"name": "l", "area_mm2": 10, "node": "7nm"}], "dram": [{"name": "m", "technology": "lpddr4", "capacity_gb": 4}], "usage": {"power_w": 1, "app_hours": 100}, "transport": [{"name": "ship", "mode": "sea", "mass_kg": 1, "distance_km": 100}]}`
	// The scalar oracle answers this one (a die count past int32), so
	// its result takes the document-parsing path.
	chargeOracleSpec = `{"name": "big", "logic": [{"name": "l", "area_mm2": 10, "node": "7nm", "count": 2147483648}], "usage": {"power_w": 1, "app_hours": 1}}`
	chargePoints     = `[{"a": 1, "b": 3}, {"a": 2, "b": 2}, {"a": 3, "b": 3}]`
	chargeCands      = `[{"name": "x", "embodied_g": 100, "energy_j": 10, "delay_s": 2}, {"name": "y", "embodied_g": 50, "energy_j": 20, "delay_s": 1}]`
)

// hostCharges is the budget table of the host builtins, checked against
// the registered set in both directions by TestHostBuiltinCharges.
var hostCharges = map[string]hostCharge{
	"footprint": {
		call:  `[` + chargeSpec + `]`,
		steps: func([]Value, Value) int64 { return stepsPerFootprint },
		bytes: func(t *testing.T, args []Value, _ Value) int64 { return 2 * int64(len(measuredDoc(t, args[0]))) },
	},
	"footprint (list)": {
		call:  `[[` + chargeSpec + `, ` + chargeOracleSpec + `]]`,
		steps: func(args []Value, _ Value) int64 { return stepsPerFootprint * int64(len(args[0].(*List).Elems)) },
		bytes: func(t *testing.T, args []Value, _ Value) int64 {
			specs := args[0].(*List).Elems
			n := 24 + 16*int64(len(specs))
			for _, s := range specs {
				n += 2 * int64(len(measuredDoc(t, s)))
			}
			return n
		},
	},
	"footprint_doc": {
		call:  `[` + chargeSpec + `]`,
		steps: func([]Value, Value) int64 { return stepsPerFootprint },
		bytes: func(t *testing.T, args []Value, _ Value) int64 { return 16 + int64(len(measuredDoc(t, args[0]))) },
	},
	"pareto": {
		call: `[` + chargePoints + `, ["a", "b"]]`,
		steps: func(args []Value, _ Value) int64 {
			n, f := int64(len(args[0].(*List).Elems)), int64(len(args[1].(*List).Elems))
			return n * n * f / 4
		},
		bytes: func(_ *testing.T, _ []Value, out Value) int64 { return 24 + 16*int64(len(out.(*List).Elems)) },
	},
	"rank": {
		call:  `["cdp", ` + chargeCands + `]`,
		steps: func(args []Value, _ Value) int64 { return stepsPerCandidate * int64(len(args[1].(*List).Elems)) },
		bytes: func(_ *testing.T, _ []Value, out Value) int64 { return 24 + 96*int64(len(out.(*List).Elems)) },
	},
	"emit": {
		call:  `["x", {"k": [1, "two", nil]}]`,
		steps: func([]Value, Value) int64 { return 0 },
		bytes: func(t *testing.T, args []Value, _ Value) int64 {
			n, err := sizeOf(args[1], 0)
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
	},
}

// measuredDoc is the result document colbatch renders for a scenario map,
// measured without the host builtins.
func measuredDoc(t *testing.T, spec Value) []byte {
	t.Helper()
	data, err := appendValueJSON(nil, spec, -1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	r := colbatch.Eval([]*scenario.Spec{s})
	defer r.Close()
	if err := r.Err(0); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(r.Doc(0))
}

// TestHostBuiltinCharges holds every host builtin to its row of
// hostCharges: calling it directly on a fresh interpreter bills exactly
// the declared steps and bytes. A registered builtin without a row, or a
// row naming no registered builtin, fails.
func TestHostBuiltinCharges(t *testing.T) {
	scope := newEnv(nil)
	registerHost(scope)
	for name := range scope.vars {
		if _, ok := hostCharges[name]; !ok {
			t.Errorf("host builtin %s has no budget declaration", name)
		}
	}
	for row, c := range hostCharges {
		name, _, _ := strings.Cut(row, " ")
		b, ok := scope.vars[name].(*Builtin)
		if !ok {
			t.Errorf("budget declared for %s, which is not a host builtin", row)
			continue
		}
		res, err := Eval(context.Background(), c.call, Options{})
		if err != nil {
			t.Fatalf("%s: arguments %s: %v", row, c.call, err)
		}
		args := res.Value.(*List).Elems
		in := &interp{ctx: context.Background(), outerCtx: context.Background(), untilCtx: ctxCheckInterval}
		out, err := b.fn(in, Pos{}, args)
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if want := c.steps(args, out); in.steps != want {
			t.Errorf("%s billed %d steps, declared %d", row, in.steps, want)
		}
		if want := c.bytes(t, args, out); in.alloc != want {
			t.Errorf("%s charged %d bytes, declared %d", row, in.alloc, want)
		}
	}
}
