package script

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"act/internal/acterr"
)

// fuzzSeeds is the shared seed corpus: valid programs covering the whole
// grammar, classic parse pitfalls, and the adversarial budget corpus.
var fuzzSeeds = []string{
	"",
	"1",
	"1 + 2 * (3 - 4) / 5 % 6",
	`"str\n\t\"escé\\"`,
	"-1.5e-3 + 1E6",
	"let x = [1, 2, 3]\nx[0] = x[2]\nx",
	`let m = {"a": 1, b: {"c": [nil, true, false]}}` + "\nm.b.c[1]",
	"fn f(a, b) { if a < b { return a }\nreturn b }\nf(1, 2)",
	"let g = fn(x) { return x * x }\ng(9)",
	"for i, v in [10, 20, 30] { emit(\"v\", i * v) }",
	"for k, v in ({\"x\": 1}) { }",
	"let i = 0\nfor i < 3 { i = i + 1\nif i == 2 { break } }",
	"for c in \"abc\" { continue }",
	"sum(range(10)) + min(1, 2) + max([3, 4])",
	`sort([{"v": 2}, {"v": 1}], "v")`,
	`join(["a", "b"], ",") + str({"k": 1}) + format("%d", 3)`,
	"true and not false or false",
	"# comment\n1 // comment\n",
	"1; 2; 3",
	"fn fib(n) { if n < 2 { return n }\nreturn fib(n-1) + fib(n-2) }\nfib(10)",
	// Parse pitfalls.
	"(((((1)))))",
	"[[[[[]]]]]",
	"{\"a\": {\"b\": {\"c\": {}}}}",
	"\"unterminated",
	"1 +",
	"let",
	"fn f(",
	"if x {",
	"@#$%",
	"\x00\xff",
	"1..2",
	"a.b.c.d.e(1)(2)[3]",
	"--1",
	"!!true",
}

func FuzzScriptParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range adversarialCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Must never panic; errors must be typed.
		prog, err := Parse(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q) error is %T, want *script.Error", src, err)
			}
			if prog != nil {
				t.Fatalf("Parse(%q) returned both a program and an error", src)
			}
		}
	})
}

// FuzzLexDifferential holds lex to oracleLex, the lexer before it was
// tuned: the same tokens (kind, text, position, number bits, decoded
// string) or the same error text, on every input.
func FuzzLexDifferential(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range adversarialCorpus {
		f.Add(s)
	}
	f.Add(`{"a": "plain", "b": "esc\u00e9\n\ud83d\ude00"}`)
	f.Add("{\"c\": \"caf\xc3\xa9 \xe2\x80\xa8\", \"d\": \"x\xffy\", \"e\": \"tab\there\"}")
	f.Add("a && b || c & d | e <= >= == != < > = !")
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := lex(src)
		want, werr := oracleLex(src)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("lex(%q) error = %v, oracle %v", src, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("lex(%q) made %d tokens, oracle %d", src, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.kind != w.kind || g.text != w.text || g.pos != w.pos ||
				math.Float64bits(g.num) != math.Float64bits(w.num) {
				t.Fatalf("lex(%q) token %d = %+v, oracle %+v", src, i, g, w)
			}
		}
	})
}

func FuzzScriptEval(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range adversarialCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Tight budgets keep each case fast; the invariants are: never
		// panic, always terminate within ~2x the wall budget, and fail
		// only with a typed error.
		opts := Options{Budget: Budget{
			MaxSteps:      200_000,
			MaxAllocBytes: 1 << 20,
			MaxDepth:      32,
			Timeout:       500 * time.Millisecond,
		}}
		start := time.Now()
		res, err := Eval(context.Background(), src, opts)
		elapsed := time.Since(start)
		if elapsed > 2*opts.Budget.Timeout {
			t.Fatalf("Eval(%q) ran %v, over 2x the %v budget", src, elapsed, opts.Budget.Timeout)
		}
		if err != nil {
			var se *Error
			var be *acterr.BudgetError
			if !errors.As(err, &se) && !errors.As(err, &be) {
				t.Fatalf("Eval(%q) error is %T (%v), want *script.Error or *acterr.BudgetError", src, err, err)
			}
			return
		}
		// A successful result must encode to valid JSON (or fail encoding
		// with a typed error for cyclic/function values) without panicking.
		var buf bytes.Buffer
		if err := res.Encode(&buf); err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Encode of Eval(%q) error is %T, want *script.Error", src, err)
			}
		} else if !json.Valid(buf.Bytes()) {
			t.Fatalf("Encode of Eval(%q) is not JSON:\n%s", src, buf.Bytes())
		}
	})
}
