package script

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"act/internal/report"
	"act/internal/scenario"
)

// exampleWire returns the canonical example scenario in wire form.
func exampleWire(t *testing.T) string {
	t.Helper()
	wire, err := scenario.Marshal(scenario.Example())
	if err != nil {
		t.Fatal(err)
	}
	return string(wire)
}

// exampleDoc returns the canonical result document for the example
// scenario — the byte-identity oracle every surface must match.
func exampleDoc(t *testing.T) string {
	t.Helper()
	res, err := scenario.Example().Result()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFootprintDocByteIdentical(t *testing.T) {
	// footprint_doc over a pasted wire scenario must reproduce the
	// direct-library document byte for byte. This is the property the
	// conformance surface machine-checks over the whole corpus.
	out, err := Eval(context.Background(), "footprint_doc("+exampleWire(t)+")", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.Value.(string)
	if !ok {
		t.Fatalf("value is %T, want string", out.Value)
	}
	if got != exampleDoc(t) {
		t.Fatalf("document mismatch:\ngot:\n%s\nwant:\n%s", got, exampleDoc(t))
	}
}

func TestFootprintSingleMatchesDoc(t *testing.T) {
	// The decoded map form must agree with the document on every leaf
	// the script reads.
	src := `let r = footprint(` + exampleWire(t) + `)
emit("total", r.total_g)
emit("embodied", r.embodied_total_g)
emit("first_part", r.breakdown[0].name)
r`
	out, err := Eval(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Example().Result()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Value{}
	for _, e := range out.Emits {
		byName[e.Name] = e.Value
	}
	if byName["total"] != res.TotalG {
		t.Fatalf("total_g = %v, want %v", byName["total"], res.TotalG)
	}
	if byName["embodied"] != res.EmbodiedTotalG {
		t.Fatalf("embodied_total_g = %v, want %v", byName["embodied"], res.EmbodiedTotalG)
	}
	if byName["first_part"] != res.Breakdown[0].Name {
		t.Fatalf("breakdown[0].name = %v, want %v", byName["first_part"], res.Breakdown[0].Name)
	}
	// The decoded map preserves the document's key order.
	m := out.Value.(*Map)
	keys := m.Keys()
	if keys[0] != "device" {
		t.Fatalf("first result key = %q, want \"device\" (document order)", keys[0])
	}
}

func TestFootprintBatchMatchesSingles(t *testing.T) {
	// The list form routes through colbatch; results must be
	// indistinguishable from per-scenario singles.
	src := `let base = ` + exampleWire(t) + `
let specs = []
for i in range(8) {
  let s = copy(base)
  s.usage.app_hours = 100 + i * 50
  specs = append(specs, s)
}
let batch = footprint(specs)
let singles = []
for s in specs { singles = append(singles, footprint(s)) }
batch == singles`
	out, err := Eval(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != true {
		t.Fatal("batch results differ from per-scenario singles")
	}
}

const (
	badNodeSpec = `{"name": "bad-node", "logic": [{"name": "l", "area_mm2": 10, "node": "9999nm"}], "usage": {"power_w": 1, "app_hours": 1}}`
	badNodeErr  = `scenario: logic "l": invalid spec field logic[0]: fab: unknown process node: feature size 9999 nm outside characterized range [3, 28] nm`
)

func TestFootprintInvalidScenario(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`footprint({"version": 1})`, "missing device name"},
		{`footprint(5)`, "needs a scenario map"},
		{`footprint([5])`, "scenario [0]"},
		{`footprint({"version": 99, "name": "x"})`, "version"},
		{`footprint_doc({"nope": true})`, "invalid scenario"},
		{`footprint()`, "takes 1 argument"},
		// An evaluation failure keeps its full text, alone and as a list
		// item, whichever way valid results are built.
		{`footprint(` + badNodeSpec + `)`, "script:1:10: " + badNodeErr},
		{`footprint([{"name": "ok", "logic": [{"name": "l", "area_mm2": 10, "node": "7nm"}], "usage": {"power_w": 1, "app_hours": 1}}, ` + badNodeSpec + `])`,
			"script:1:10: scenario [1]: " + badNodeErr},
	}
	for _, c := range cases {
		_, err := Eval(context.Background(), c.src, Options{})
		if err == nil {
			t.Errorf("Eval(%q) unexpectedly succeeded", c.src)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("Eval(%q) error is %T (%v), want *script.Error", c.src, err, err)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Eval(%q) error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	src := `let pts = [
  {"name": "a", "carbon": 1, "delay": 9},
  {"name": "b", "carbon": 5, "delay": 5},
  {"name": "c", "carbon": 9, "delay": 1},
  {"name": "d", "carbon": 6, "delay": 6},
  {"name": "e", "carbon": 1, "delay": 9}
]
let front = pareto(pts, ["carbon", "delay"])
let names = []
for p in front { names = append(names, p.name) }
names`
	out, err := Eval(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Value.(*List)
	want := []string{"a", "b", "c", "e"} // d dominated by b; duplicate e survives
	if len(got.Elems) != len(want) {
		t.Fatalf("frontier = %v, want %v", got.Elems, want)
	}
	for i, w := range want {
		if got.Elems[i] != w {
			t.Fatalf("frontier[%d] = %v, want %q", i, got.Elems[i], w)
		}
	}
}

func TestParetoErrors(t *testing.T) {
	cases := []string{
		`pareto([{"a": 1}], [])`,
		`pareto([{"a": 1}], ["b"])`,
		`pareto([{"a": "x"}], ["a"])`,
		`pareto([5], ["a"])`,
		`pareto(5, ["a"])`,
	}
	for _, src := range cases {
		if _, err := Eval(context.Background(), src, Options{}); err == nil {
			t.Errorf("Eval(%q) unexpectedly succeeded", src)
		}
	}
}

func TestRankMatchesMetricsPackage(t *testing.T) {
	src := `let cands = [
  {"name": "slow", "embodied_g": 1000, "energy_j": 50, "delay_s": 2.0, "area_mm2": 100},
  {"name": "fast", "embodied_g": 2000, "energy_j": 80, "delay_s": 0.5, "area_mm2": 150}
]
let r = rank("CDP", cands)
emit("best", r[0].name)
emit("best_value", r[0].value)
len(r)`
	out, err := Eval(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 2.0 {
		t.Fatalf("rank returned %v entries", out.Value)
	}
	// CDP = C*D: slow = 1000*2 = 2000, fast = 2000*0.5 = 1000 → fast wins.
	if out.Emits[0].Value != "fast" {
		t.Fatalf("best = %v, want fast", out.Emits[0].Value)
	}
	if out.Emits[1].Value != 1000.0 {
		t.Fatalf("best value = %v, want 1000", out.Emits[1].Value)
	}
}

func TestRankErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`rank("NOPE", [{"name": "a", "delay_s": 1}])`, "unknown metric"},
		{`rank("CDP", [])`, "no candidates"},
		{`rank("CDP", [{"delay_s": 1}])`, `needs a "name"`},
		{`rank("CDP", [{"name": "a"}])`, "non-positive delay"},
		{`rank("CDP", [{"name": "a", "delay_s": 1}, {"name": "b", "delay_s": 1e300}])`,
			"rank candidate [1]: metrics: delay 1e+300 s is outside time.Duration's range of ±9.223372036854776e+09 s"},
		{`rank("CDP", [{"name": "a", "delay_s": 1, "embodied_g": "x"}])`, "need a number"},
		{`rank(5, [])`, "needs a string"},
	}
	for _, c := range cases {
		_, err := Eval(context.Background(), c.src, Options{})
		if err == nil {
			t.Errorf("Eval(%q) unexpectedly succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Eval(%q) error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

func TestEmitOrdering(t *testing.T) {
	out, err := Eval(context.Background(), `for i in range(3) { emit("tick", i) }
emit("done", true)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Emits) != 4 {
		t.Fatalf("got %d emits", len(out.Emits))
	}
	for i := 0; i < 3; i++ {
		if out.Emits[i].Name != "tick" || out.Emits[i].Value != float64(i) {
			t.Fatalf("emit[%d] = %+v", i, out.Emits[i])
		}
	}
	if out.Emits[3].Name != "done" {
		t.Fatalf("last emit = %+v", out.Emits[3])
	}
}

const cyclicScenarioList = "let m = {\"name\": \"x\"}\nm[\"self\"] = m\nfootprint([m])"

// TestCyclicScenarioInListKeepsSharedErrorIntact: a cyclic scenario map
// in the list form fails with an error of its own, at the call, and
// leaves the shared depth error alone, so a later cyclic str() still
// reads without a scenario label.
func TestCyclicScenarioInListKeepsSharedErrorIntact(t *testing.T) {
	want := "script:3:10: scenario [0]: value nests deeper than 128 levels (reference cycle?)"
	if err := evalErr(t, cyclicScenarioList); err.Error() != want {
		t.Fatalf("footprint([cyclic]) error = %q, want %q", err, want)
	}
	want = "script: value nests deeper than 128 levels (reference cycle?)"
	if err := evalErr(t, "let l = []\nappend(l, l)\nstr(l)"); err.Error() != want {
		t.Fatalf("str(cyclic) after footprint([cyclic]) = %q, want %q", err, want)
	}
}

// TestCyclicScenarioInListConcurrent runs the failing list form from two
// goroutines at once; under -race it catches a write to a shared error.
func TestCyclicScenarioInListConcurrent(t *testing.T) {
	want := "script:3:10: scenario [0]: value nests deeper than 128 levels (reference cycle?)"
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := Eval(context.Background(), cyclicScenarioList, Options{}); err == nil || err.Error() != want {
					errs <- fmt.Errorf("footprint([cyclic]) error = %v, want %q", err, want)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
