package script

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// checkWriterForms holds appendValueJSON's two forms to each other: the
// compact form (indent < 0) is what encoding/json's Compact leaves of
// itself, and its Indent is byte for byte the indented form.
func checkWriterForms(t *testing.T, name string, v Value) {
	t.Helper()
	compact, err := appendValueJSON(nil, v, -1)
	if err != nil {
		t.Fatalf("%s: compact: %v", name, err)
	}
	indented, err := appendValueJSON(nil, v, 0)
	if err != nil {
		t.Fatalf("%s: indented: %v", name, err)
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, compact); err != nil || !bytes.Equal(compacted.Bytes(), compact) {
		t.Fatalf("%s: compact form is not compact JSON (%v): %s", name, err, compact)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indented, want.Bytes()) {
		t.Errorf("%s: indented form\n%s\nis not json.Indent of the compact form\n%s", name, indented, want.Bytes())
	}
}

func TestValueWriterForms(t *testing.T) {
	inner := NewMap()
	inner.Set("z", 1.0)
	inner.Set("a", &List{Elems: []Value{NewMap(), &List{}, nil}})
	outer := NewMap()
	outer.Set("esc \"q\" \\ /\n\t <&>\x01é", "v \x7f\U0001F600")
	outer.Set("", inner)
	outer.Set("nums", &List{Elems: []Value{0.0, math.Copysign(0, -1), -1.5, 1e21, 1e-7, 5e-324, math.MaxFloat64}})
	outer.Set("nonfinite", &List{Elems: []Value{math.NaN(), math.Inf(1), math.Inf(-1)}})
	outer.Set("bools", &List{Elems: []Value{true, false}})
	values := map[string]Value{
		"nil": nil, "true": true, "number": 42.0, "NaN": math.NaN(), "+Inf": math.Inf(1),
		"string": "a\"b", "empty list": &List{}, "empty map": NewMap(),
		"nested empties": &List{Elems: []Value{&List{}, NewMap(), &List{Elems: []Value{&List{}}}}},
		"nested":         outer,
	}
	for name, v := range values {
		checkWriterForms(t, name, v)
	}

	files, err := filepath.Glob("../../examples/scripting/*.act")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(context.Background(), string(src), Options{})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		checkWriterForms(t, file+" output", res.Value)
		for _, e := range res.Emits {
			checkWriterForms(t, file+" emit "+e.Name, e.Value)
		}
	}
}

// TestWriterDepthLimits pins where each form gives up on a deep value:
// compact from the top at 128 levels of nesting, indented counted from
// the level it starts at, as Encode starts the output at level 1.
func TestWriterDepthLimits(t *testing.T) {
	nest := func(levels int) Value {
		var v Value = 1.0
		for i := 0; i < levels; i++ {
			v = &List{Elems: []Value{v}}
		}
		return v
	}
	for _, c := range []struct {
		indent, ok int // the deepest nesting that writes; one more fails
	}{{-1, 128}, {0, 128}, {1, 127}, {3, 125}} {
		if _, err := appendValueJSON(nil, nest(c.ok), c.indent); err != nil {
			t.Errorf("indent %d: %d levels: %v", c.indent, c.ok, err)
		}
		if _, err := appendValueJSON(nil, nest(c.ok+1), c.indent); !errors.Is(err, errTooDeep) {
			t.Errorf("indent %d: %d levels: err = %v, want errTooDeep", c.indent, c.ok+1, err)
		}
	}
}
