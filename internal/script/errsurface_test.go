package script

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// The error surface is part of the language contract: every broken
// program must fail with a positioned, human-readable *Error whose
// message names the construct at fault. One table drives the whole
// diagnostic catalog, which doubles as the coverage net over the error
// branches the happy-path tests never reach.
func TestDiagnosticCatalog(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error message
	}{
		// Lexer diagnostics.
		{"bad escape", `"a\x"`, `invalid escape \x`},
		{"truncated unicode escape", `"\u00"`, `truncated \u escape`},
		{"bad unicode hex", `"\uzzzz"`, `invalid \u escape`},
		{"control byte in string", "\"a\x01b\"", "control byte"},
		{"newline in string", "\"a\nb\"", "unterminated string"},
		{"unterminated string", `"abc`, "unterminated string"},
		{"number missing fraction", "1.", "digit required after decimal point"},
		{"number missing exponent", "1e", "digit required in exponent"},
		{"stray punct", "1 ? 2", `unexpected character '?'`},
		{"stray multibyte rune", "1 + ·", "unexpected character"},
		// Parser diagnostics.
		{"let without name", "let = 3", "expected variable name after let"},
		{"unterminated list", "[1, 2", "unterminated list"},
		{"unterminated map", `{"a": 1`, "unterminated map"},
		{"unterminated block", "if true {", "unterminated block"},
		{"map in for header", `for k, v in {"a": 1} {}`, "map literal not allowed here"},
		{"duplicate param", "fn f(a, a) {}", "duplicate parameter"},
		{"assign to literal", "1 = 2", "cannot assign"},
		{"dangling else", "else {}", "unexpected"},
		{"missing paren", "(1 + 2", `expected ")"`},
		// Type and control-flow diagnostics.
		{"if non-bool", "if 1 {}", "if condition must be a bool, got number"},
		{"while non-bool", `for "x" {}`, "for condition must be a bool, got string"},
		{"iterate non-iterable", "for x in 5 {}", "cannot iterate over a number"},
		{"duplicate map key", `{"a": 1, "a": 2}`, `duplicate map key "a"`},
		{"top-level break", "break", "break outside a loop"},
		{"top-level continue", "continue", "continue outside a loop"},
		{"break escaping a call", "fn f() { break }\nfor x in [1] { f() }", "break outside a loop"},
		{"continue escaping a call", "fn f() { continue }\nfor x in [1] { f() }", "continue outside a loop"},
		{"undefined variable", "x + 1", `undefined name "x"`},
		{"assign undefined", "x = 1", `undefined`},
		{"call non-function", "let x = 3\nx(1)", "cannot call a number"},
		{"arity mismatch", "fn f(a) { return a }\nf(1, 2)", "takes 1 argument(s), got 2"},
		{"unary minus on string", `-"a"`, "unary - needs a number, got string"},
		{"not on number", "not 1", "bool"},
		{"add bool", "true + 1", "+ needs numbers or strings, got bool"},
		{"compare mixed", `1 < "a"`, "cannot compare"},
		{"divide by zero", "1 / 0", "division by zero"},
		{"modulo by zero", "1 % 0", "modulo by zero"},
		{"and non-bool", "1 && true", "bool"},
		{"index string by string", `"abc"["x"]`, "index"},
		{"list index fraction", "[1, 2][0.5]", "integer"},
		{"list index range", "[1, 2][5]", "out of range"},
		{"index number", "(5)[0]", "cannot index a number"},
		{"missing map key", `({"a": 1})["b"]`, `no key "b"`},
		// Builtin diagnostics.
		{"len of number", "len(1)", "len"},
		{"range zero step", "range(0, 10, 0)", "step"},
		{"append to non-list", "append(1, 2)", "list"},
		{"sort mixed types", `sort([1, "a"])`, "sort"},
		{"sort bools", "sort([true])", "sort"},
		{"min of nothing", "min()", "min"},
		{"min of empty list", "min([])", "empty list"},
		{"min of strings", `min("a", "b")`, "number"},
		{"sum non-number", `sum(["a"])`, "number"},
		{"sqrt of string", `sqrt("x")`, "number"},
		{"num of list", "num([])", "num needs a number, bool or string"},
		{"num of bad string", `num("zebra")`, `num cannot parse "zebra"`},
		{"join non-string element", `join([1], ",")`, "string"},
		{"keys of list", "keys([1])", "map"},
		{"has on list", "has([1], 0)", "map"},

		// Host-call diagnostics.
		{"footprint non-map", "footprint(1)", "map"},
		{"footprint bad scenario", `footprint({"version": 1})`, "missing device name"},
		{"footprint_doc non-map", "footprint_doc([1])", "map"},
		{"footprint_doc of a list", `footprint_doc([{"name": "x"}])`, "footprint_doc needs a scenario map, got list"},
		{"pareto bad field", `pareto([{"a": 1}], ["b"])`, `"b"`},
		{"pareto non-number field", `pareto([{"a": "x"}], ["a"])`, "number"},
		{"rank unknown metric", `rank("BOGUS", [])`, "metric"},
		{"rank bad candidate", `rank("CDP", [{"name": "x"}])`, "candidate"},
		{"emit non-string name", "emit(1, 2)", "string"},
		{"emit arity", `emit("x")`, "takes 2 argument(s), got 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Eval(context.Background(), tc.src, Options{})
			if err == nil {
				t.Fatalf("program %q evaluated cleanly, want error containing %q", tc.src, tc.want)
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *script.Error: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.want)
			}
			if se.Pos.Line == 0 {
				t.Errorf("error %q carries no position", err.Error())
			}
		})
	}
}

// TestErrorUnwrap pins that a wrapped cause survives the *Error envelope.
func TestErrorUnwrap(t *testing.T) {
	cause := errors.New("root cause")
	e := &Error{Pos: Pos{Line: 2, Col: 3}, Msg: "context", Err: cause}
	if !errors.Is(e, cause) {
		t.Error("errors.Is does not see through *Error")
	}
	if !strings.Contains(e.Error(), "2:3") {
		t.Errorf("error %q does not render its position", e.Error())
	}
}

// TestStringEscapeRoundTrip exercises the full escape set, surrogate
// pairs, and the lexer's lone-surrogate replacement.
func TestStringEscapeRoundTrip(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`"\b\f\r\t\n\\\"\/"`, "\b\f\r\t\n\\\"/"},
		{`"AJ"`, "AJ"},
		{`"é"`, "é"},
		{`"😀"`, "😀"},             // surrogate pair
		{`"\ud800"`, "�"},        // lone high surrogate → replacement
		{`"\ud800x"`, "�x"},      // high surrogate not followed by \u
		{`"café π"`, "café π"},   // raw multibyte plus escape
		{`"-12.5e3"`, "-12.5e3"}, // digits in strings stay text
	}
	for _, tc := range cases {
		res, err := Eval(context.Background(), tc.src, Options{})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := res.Value.(string); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestNegativeLiteralDisambiguation pins the lexer's minus-folding rule.
func TestNegativeLiteralDisambiguation(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"let a = 5\na -1", 4}, // ident then minus: subtraction
		{"(3) -1", 2},          // close paren: subtraction
		{"[5, 3][1] -1", 2},    // close bracket: subtraction
		{`len("ab") -1`, 1},    // call result: subtraction
		{"2 - -1", 3},          // operator then minus: literal
		{"return -1", -1},      // keyword then minus: literal
		{"let xs = [-1, -2]\nxs[0]", -1},
		{"true and -1 < 0", 1}, // bool keyword operand
	}
	for _, tc := range cases {
		res, err := Eval(context.Background(), tc.src, Options{})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		got, ok := res.Value.(float64)
		if !ok && tc.src == "true and -1 < 0" {
			if b := res.Value.(bool); b {
				continue
			}
			t.Errorf("%s = %v, want true", tc.src, res.Value)
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, res.Value, tc.want)
		}
	}
}

// TestEncodeUnencodableValue pins the envelope's failure mode: a program
// whose output (or emit) is a function cannot serialize, and the encoder
// says so rather than panicking or emitting garbage.
func TestEncodeUnencodableValue(t *testing.T) {
	res, err := Eval(context.Background(), "fn f() { return 1 }\nf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err == nil || !strings.Contains(err.Error(), "function") {
		t.Fatalf("Encode = %v, want function-encoding error", err)
	}
}

// TestNonFiniteNumbersEncodeAsNull pins JSON-compatible rendering of the
// float edge cases a program can legitimately produce.
func TestNonFiniteNumbersEncodeAsNull(t *testing.T) {
	res, err := Eval(context.Background(), `[sqrt(-1), 1e308 * 10, str(sqrt(-1))]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "null") {
		t.Errorf("NaN/Inf did not render as null:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("non-JSON float token leaked into the envelope:\n%s", out)
	}
}

// TestDeepEqualSemantics pins == across every value shape, including the
// shapes that are never equal (functions) and cross-type comparisons.
func TestDeepEqualSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`[1, [2, {"a": "x"}]] == [1, [2, {"a": "x"}]]`, true},
		{`{"a": 1, "b": 2} == {"b": 2, "a": 1}`, true}, // key order irrelevant
		{`{"a": 1} == {"a": 2}`, false},
		{`{"a": 1} == {"b": 1}`, false},
		{`[1] == [1, 2]`, false},
		{`[1] == 1`, false},
		{`nil == nil`, true},
		{`nil == 0`, false},
		{`"a" != "b"`, true},
		{`true == true`, true},
		{`fn f() { return 1 }
fn g() { return 1 }
f == g`, false},
		{`fn f() { return 1 }
let g = f
f == g`, true}, // same function value
	}
	for _, tc := range cases {
		res, err := Eval(context.Background(), tc.src, Options{})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := res.Value.(bool); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestMathBuiltinEdgeValues exercises the numeric builtins across their
// domains.
func TestMathBuiltinEdgeValues(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"abs(-3.5)", 3.5},
		{"floor(-1.5)", -2},
		{"ceil(-1.5)", -1},
		{"round(2.5)", 3},
		{"round(-2.5)", -3},
		{"exp(0)", 1},
		{"log(1)", 0},
		{"pow(2, 10)", 1024},
		{"min(3, 1, 2)", 1},
		{"max([3, 1, 2])", 3},
		{"sum([])", 0},
		{"num(true)", 1},
		{"num(false)", 0},
		{`num("-12.5")`, -12.5},
		{"2 % 0.5", 0},
		{"-7 % 3", -1}, // math.Mod keeps the dividend's sign
	}
	for _, tc := range cases {
		res, err := Eval(context.Background(), tc.src, Options{})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := res.Value.(float64); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}
