package script_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"act/internal/colbatch"
	"act/internal/conform"
	"act/internal/scenario"
	"act/internal/script"
)

// corpusProgram is the design sweep a /v1/script client sends: n seeded
// corpus scenarios as compact JSON literals, priced in one batched
// footprint() call and folded to a total.
func corpusProgram(tb testing.TB, n int) string {
	return specsLiteral(tb, conform.GenerateCorpus(1, n)) + `let docs = footprint(specs)
let total = 0
for d in docs {
  total = total + d["total_g"]
}
total
`
}

// BenchmarkScriptCorpus200 times the whole script request perfbench's
// design workload sends, without HTTP: lex, parse, the literal
// scenarios, one 200-scenario footprint() call and the fold.
func BenchmarkScriptCorpus200(b *testing.B) {
	src := corpusProgram(b, 200)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		res, err := script.Eval(ctx, src, script.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.Value.(float64); !ok {
			b.Fatalf("corpus result is %T, want number", res.Value)
		}
	}
}

// TestLexCorpusAllocatesOnce: lexing the 200-scenario corpus program
// makes the oracle's tokens while allocating at most a quarter of the
// bytes the oracle lexer does (it regrows its token slice and copies
// every string literal).
func TestLexCorpusAllocatesOnce(t *testing.T) {
	got, oracle, agree := script.LexBytes(corpusProgram(t, 200))
	if !agree {
		t.Fatal("lex and the oracle lexer disagree on the corpus program")
	}
	if got*4 > oracle {
		t.Fatalf("lex allocated %d bytes, oracle %d: want at most a quarter", got, oracle)
	}
	t.Logf("lex allocated %d bytes, oracle %d", got, oracle)
}

// TestFootprintMatchesDecodedDoc pins footprint(): over the conform corpus
// plus a valid scenario the columnar engine hands to its scalar oracle
// (a die count past int32), the result map of the list form and of the
// single form is the value DecodeDoc parses out of footprint_doc's
// document — same types, same key order, same float bits.
func TestFootprintMatchesDecodedDoc(t *testing.T) {
	specs := conform.GenerateCorpus(7, 300)
	oracleAnswered := &scenario.Spec{
		Name:  "oracle-answered",
		Logic: []scenario.LogicSpec{{Name: "l", AreaMM2: 10, Node: "7nm", Count: 1 << 31}},
		Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1},
	}
	r := colbatch.Eval([]*scenario.Spec{oracleAnswered})
	walked := r.Err(0) != nil || r.Walk(0, nopSink{})
	r.Close()
	if walked {
		t.Fatal("the oracle-answered scenario no longer reaches colbatch's scalar oracle")
	}
	specs = append(specs, oracleAnswered)
	src := specsLiteral(t, specs) + `
let out = {"list": footprint(specs), "single": [], "docs": []}
for s in specs {
  append(out.single, footprint(s))
  append(out.docs, footprint_doc(s))
}
out
`
	// A budget for pricing hundreds of scenarios three ways.
	res, err := script.Eval(context.Background(), src, script.Options{Budget: script.Budget{
		MaxSteps:      1 << 40,
		MaxAllocBytes: 1 << 40,
		Timeout:       time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Value.(*script.Map)
	list := field(t, out, "list").Elems
	single := field(t, out, "single").Elems
	docs := field(t, out, "docs").Elems
	if len(list) != len(specs) || len(single) != len(specs) || len(docs) != len(specs) {
		t.Fatalf("got %d list, %d single, %d docs for %d specs", len(list), len(single), len(docs), len(specs))
	}
	for i := range specs {
		want, err := script.DecodeDoc([]byte(docs[i].(string)))
		if err != nil {
			t.Fatal(err)
		}
		if d := sameValue(list[i], want, "list"); d != "" {
			t.Fatalf("spec %d (%s): %s", i, specs[i].Name, d)
		}
		if d := sameValue(single[i], want, "single"); d != "" {
			t.Fatalf("spec %d (%s): %s", i, specs[i].Name, d)
		}
	}
}

// specsLiteral renders `let specs = [...]` with each scenario as a
// compact JSON literal.
func specsLiteral(tb testing.TB, specs []*scenario.Spec) string {
	tb.Helper()
	var buf bytes.Buffer
	buf.WriteString("let specs = [\n")
	for i, s := range specs {
		b, err := scenario.Marshal(s)
		if err != nil {
			tb.Fatal(err)
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		if err := json.Compact(&buf, b); err != nil {
			tb.Fatal(err)
		}
	}
	buf.WriteString("\n]\n")
	return buf.String()
}

func field(t *testing.T, m *script.Map, key string) *script.List {
	t.Helper()
	v, ok := m.Get(key)
	if !ok {
		t.Fatalf("no %q in the result", key)
	}
	return v.(*script.List)
}

// sameValue describes the first difference between two script values,
// comparing map key order and float bits, or returns "".
func sameValue(got, want script.Value, path string) string {
	switch w := want.(type) {
	case *script.Map:
		g, ok := got.(*script.Map)
		if !ok {
			return fmt.Sprintf("%s: got %T, want a map", path, got)
		}
		if fmt.Sprint(g.Keys()) != fmt.Sprint(w.Keys()) {
			return fmt.Sprintf("%s: keys %q, want %q", path, g.Keys(), w.Keys())
		}
		for _, k := range w.Keys() {
			gv, _ := g.Get(k)
			wv, _ := w.Get(k)
			if d := sameValue(gv, wv, path+"."+k); d != "" {
				return d
			}
		}
	case *script.List:
		g, ok := got.(*script.List)
		if !ok {
			return fmt.Sprintf("%s: got %T, want a list", path, got)
		}
		if len(g.Elems) != len(w.Elems) {
			return fmt.Sprintf("%s: %d elements, want %d", path, len(g.Elems), len(w.Elems))
		}
		for i := range w.Elems {
			if d := sameValue(g.Elems[i], w.Elems[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s: got %#v, want %#v", path, got, w)
		}
	default:
		if got != want {
			return fmt.Sprintf("%s: got %#v, want %#v", path, got, want)
		}
	}
	return ""
}

type nopSink struct{}

func (nopSink) Object(string, int)    {}
func (nopSink) Array(string, int)     {}
func (nopSink) End()                  {}
func (nopSink) String(string, string) {}
func (nopSink) Float(string, float64) {}
