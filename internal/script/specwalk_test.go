package script_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"act/internal/conform"
	"act/internal/scenario"
	"act/internal/script"
)

// declineCases are script maps the wire decoder's walk must leave to the
// JSON oracle, one for each way a map's JSON rendering can decode other
// than the walk would: an unknown key, a type mismatch, nil, NaN, ±Inf, a
// non-integral or too large int field, and an unsupported version. A
// program cannot make a string that is not UTF-8; TestSpecWalkDeclines
// builds that case in Go.
var declineCases = map[string]string{
	"unknown key":       `{"name": "x", "usage": {"power_w": 1, "app_hours": 1}, "bogus": 1}`,
	"case-folded key":   `{"NAME": "x"}`,
	"string for number": `{"name": "x", "lifetime_years": "3"}`,
	"number for string": `{"name": 7}`,
	"map for list":      `{"name": "x", "logic": {}}`,
	"list for map":      `{"name": "x", "usage": []}`,
	"bool":              `{"name": "x", "logic": [{"name": "l", "area_mm2": true, "node": "7nm"}]}`,
	"nil field":         `{"name": "x", "end_of_life": nil}`,
	"nil element":       `{"name": "x", "dram": [nil]}`,
	"function":          `{"name": len}`,
	"NaN":               `{"name": "x", "usage": {"power_w": 1e308 * 10 - 1e308 * 10, "app_hours": 1}}`,
	"+Inf":              `{"name": "x", "lifetime_years": 1e308 * 10}`,
	"-Inf":              `{"name": "x", "transport": [{"name": "t", "mass_kg": -1e308 * 10, "distance_km": 1, "mode": "air"}]}`,
	"fractional int":    `{"name": "x", "extra_ics": 1.5}`,
	"int past 2^53":     `{"name": "x", "logic": [{"name": "l", "area_mm2": 1, "node": "7nm", "count": 9007199254740994}]}`,
	"int past int64":    `{"name": "x", "extra_ics": 1e19}`,
	"version 2":         `{"version": 2, "name": "x"}`,
	"version -1":        `{"version": -1, "name": "x"}`,
	"nested cycle":      "let m = {\"name\": \"x\", \"logic\": []}\nappend(m.logic, m)\nm",
}

// evalMap runs src under a small budget and returns its value when it is
// a map.
func evalMap(src string) (*script.Map, bool) {
	res, err := script.Eval(context.Background(), src, script.Options{Budget: script.Budget{
		MaxSteps: 20000, MaxAllocBytes: 1 << 22, Timeout: time.Second,
	}})
	if err != nil {
		return nil, false
	}
	m, ok := res.Value.(*script.Map)
	return m, ok
}

// walked reports whether the wire decoder's walk takes m.
func walked(m *script.Map) bool {
	d := scenario.NewTreeDecoder(m)
	_, err := d.Spec()
	return d.End() && err == nil
}

// checkSpecFromValue holds footprint()'s conversion of m to the oracle:
// the same spec, or the same error text.
func checkSpecFromValue(t *testing.T, m *script.Map) {
	t.Helper()
	got, gerr := script.SpecFromValue(m)
	want, werr := script.SpecFromJSON(m)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("error %v, oracle %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec %+v, oracle %+v", got, want)
	}
}

// TestSpecWalkTakesCorpus: the walk takes every generated corpus scenario
// written as a literal, and builds the spec the oracle decodes.
func TestSpecWalkTakesCorpus(t *testing.T) {
	specs := conform.GenerateCorpus(1001, 1000)
	res, err := script.Eval(context.Background(), specsLiteral(t, specs)+"specs", script.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Value.(*script.List).Elems {
		m := v.(*script.Map)
		if !walked(m) {
			t.Fatalf("scenario %d: the walk declined it", i)
		}
		checkSpecFromValue(t, m)
	}
}

// TestSpecWalkDeclines: every decline case reaches the oracle, and the
// answer is the oracle's.
func TestSpecWalkDeclines(t *testing.T) {
	for name, src := range declineCases {
		m, ok := evalMap(src)
		if !ok {
			t.Fatalf("%s: %q is not a map", name, src)
		}
		if walked(m) {
			t.Errorf("%s: the walk took %q", name, src)
		}
		checkSpecFromValue(t, m)
	}
	bad := script.NewMap()
	bad.Set("name", "\xff")
	logic := script.NewMap()
	logic.Set("node", "7\xffnm")
	nested := script.NewMap()
	nested.Set("name", "x")
	nested.Set("logic", &script.List{Elems: []script.Value{logic}})
	for _, m := range []*script.Map{bad, nested} {
		if walked(m) {
			t.Errorf("the walk took a string that is not UTF-8")
		}
		checkSpecFromValue(t, m)
	}
}

// FuzzSpecFromValue holds footprint()'s scenario conversion to its JSON
// oracle over random script maps: each input is a program, and whatever
// map it evaluates to converts to a reflect.DeepEqual spec or fails with
// the same error text both ways.
func FuzzSpecFromValue(f *testing.F) {
	for _, spec := range conform.GenerateCorpus(1, 40) {
		f.Add(specsLiteral(f, []*scenario.Spec{spec}) + "specs[0]")
	}
	for _, src := range declineCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if m, ok := evalMap(src); ok {
			checkSpecFromValue(t, m)
		}
	})
}
