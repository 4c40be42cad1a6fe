package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fastSpec runs Unmarshal's fast path alone. ok is false when it declined.
func fastSpec(data []byte) (s *Spec, err error, ok bool) {
	d := NewFastDecoder(data)
	s, err = d.Spec()
	return s, err, d.End()
}

// checkFastUnmarshal is the differential between Unmarshal's two paths:
// whenever the fast path answers, encoding/json must give the same answer
// — the same error text, or a reflect.DeepEqual Spec (so an empty array
// and a missing one, or {} and a missing object, must agree too).
func checkFastUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	fast, fastErr, ok := fastSpec(data)
	if !ok {
		return
	}
	want, wantErr := unmarshalOracle(data)
	if errText(fastErr) != errText(wantErr) {
		t.Fatalf("fast path error %q, oracle %q\ninput: %q", errText(fastErr), errText(wantErr), data)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast path and oracle disagree\nfast:   %#v\noracle: %#v\ninput: %q", fast, want, data)
	}
}

// checkFastBatch is the same differential for ParseRequest's batch path.
func checkFastBatch(t *testing.T, data []byte) {
	t.Helper()
	if _, ok := fastBatch(data); !ok {
		return
	}
	got, gotBatch, gotErr := parseRequest(data)
	want, wantBatch, wantErr := parseBatchOracle(data)
	if errText(gotErr) != errText(wantErr) || gotBatch != wantBatch {
		t.Fatalf("fast path (%v, %q), oracle (%v, %q)\ninput: %q", gotBatch, errText(gotErr), wantBatch, errText(wantErr), data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path and oracle disagree on the batch\ninput: %q", data)
	}
}

// FuzzParseRequestBatch feeds arbitrary bytes to ParseRequest and checks
// the batch differential. Seeds are the scenario seeds wrapped as
// batches, beside batch-shaped hazards.
func FuzzParseRequestBatch(f *testing.F) {
	one := strings.TrimSpace(sample)
	for _, s := range []string{
		"[" + one + "]",
		"[" + one + ",\n" + strings.TrimSpace(lifecycleSample) + "]",
		"[]",
		" [ {} , {\"version\":1} ] ",
		`[{"version":7,"name":"y"},{"name":"z","nmae":1}]`,
		`[{"name":"x"}] junk`,
		`[{"name":"x"},]`,
		`[{"name":"x"} {"name":"y"}]`,
		`[null]`,
		`[{"name":"x","logic":[{"name":"a"}],"logic":[{"node":"7nm"}]}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastBatch(t, data)
	})
}

// TestFastPathDeclines pins every construct outside the fast subset: the
// fast path must decline it, and Unmarshal must then answer exactly as
// encoding/json does. The rows include the two oracle quirks the subset
// exists to avoid, with the oracle's answer asserted so a change to that
// behaviour is a visible decision.
func TestFastPathDeclines(t *testing.T) {
	const usage = `"usage":{"power_w":1,"app_hours":1}`
	cases := []struct {
		name, in string
		// check, when set, asserts the oracle's answer.
		check func(t *testing.T, s *Spec, err error)
	}{
		{name: "duplicate key merges into the existing element",
			in: `{"name":"x","logic":[{"name":"a","area_mm2":1,"node":"7nm","fab":{"yield":0.5}}],"logic":[{"name":"m"}],` + usage + `}`,
			check: func(t *testing.T, s *Spec, err error) {
				if err != nil {
					t.Fatal(err)
				}
				l := s.Logic[0]
				if l.Name != "m" || l.Node != "7nm" || l.Fab == nil || l.Fab.Yield != 0.5 {
					t.Errorf("second logic[0] = %+v (fab %+v), want name m inheriting node and fab", l, l.Fab)
				}
			}},
		{name: "duplicate scalar key", in: `{"name":"x","name":"y",` + usage + `}`,
			check: func(t *testing.T, s *Spec, err error) {
				if err != nil || s.Name != "y" {
					t.Errorf("got %+v, %v; want the last name", s, err)
				}
			}},
		{name: "case-variant key overrides", in: `{"name":"x","NAME":"y",` + usage + `}`,
			check: func(t *testing.T, s *Spec, err error) {
				if err != nil || s.Name != "y" {
					t.Errorf("got %+v, %v; want NAME to override name", s, err)
				}
			}},
		{name: "case-variant key alone", in: `{"Name":"x",` + usage + `}`},
		{name: "null", in: `null`},
		{name: "null field", in: `{"name":null}`},
		{name: "null pointer field", in: `{"name":"x","end_of_life":null}`},
		{name: "escape JSON lacks", in: `{"name":"a\'b"}`},
		{name: "short unicode escape", in: `{"name":"\u00e"}`},
		{name: "non-hex unicode escape", in: `{"name":"\u00g9"}`},
		{name: "backslash at end of input", in: `{"name":"a\`},
		{name: "escape spelling an unknown key", in: `{"n\u0061mes":"x"}`},
		{name: "control byte after an escape", in: "{\"name\":\"\\n\tb\"}"},
		{name: "invalid utf-8 after an escape", in: "{\"name\":\"\\n\xffb\"}"},
		{name: "control byte in string", in: "{\"name\":\"a\tb\"}"},
		{name: "invalid utf-8", in: "{\"name\":\"a\xffb\"}"},
		{name: "unknown key", in: `{"name":"x","bogus":1}`},
		{name: "key without opening quote", in: `{0version":1}`},
		{name: "float in int field", in: `{"name":"x","version":1.0}`},
		{name: "exponent in int field", in: `{"name":"x","extra_ics":1e2}`},
		{name: "int overflow", in: `{"name":"x","extra_ics":99999999999999999999}`},
		{name: "float overflow", in: `{"name":"x","lifetime_years":1e400}`},
		{name: "leading zero", in: `{"name":"x","lifetime_years":01}`},
		{name: "leading plus", in: `{"name":"x","lifetime_years":+1}`},
		{name: "bare fraction", in: `{"name":"x","lifetime_years":.5}`},
		{name: "empty fraction", in: `{"name":"x","lifetime_years":1.}`},
		{name: "empty exponent", in: `{"name":"x","lifetime_years":1e}`},
		{name: "string for number", in: `{"name":"x","lifetime_years":"3"}`},
		{name: "number for string", in: `{"name":3}`},
		{name: "trailing comma", in: `{"name":"x",}`},
		{name: "truncated", in: `{"name":"x"`},
		{name: "array body", in: `[{"name":"x"}]`},
		{name: "trailing data", in: `{"name":"x"} trailing junk`,
			check: func(t *testing.T, s *Spec, err error) {
				if want := "scenario: invalid character 't' after top-level value"; errText(err) != want {
					t.Errorf("error %q, want %q", errText(err), want)
				}
			}},
		{name: "second object", in: `{"name":"x"}{"name":"y"}`},
		{name: "byte order mark", in: "\xef\xbb\xbf{}"},
		{name: "empty", in: ``},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.in)
			if _, _, ok := fastSpec(data); ok {
				t.Fatal("fast path accepted input outside its subset")
			}
			got, gotErr := Unmarshal(data)
			want, wantErr := unmarshalOracle(data)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("Unmarshal (%+v, %v) differs from the oracle (%+v, %v)", got, gotErr, want, wantErr)
			}
			if c.check != nil {
				c.check(t, got, gotErr)
			}
			checkFastBatch(t, []byte("["+c.in+"]"))
		})
	}
}

// TestFastPathAccepts pins the subset's edges from the inside: each input
// is decoded by the fast path and agrees with the oracle.
func TestFastPathAccepts(t *testing.T) {
	for _, in := range []string{
		`{}`,
		" \t\r\n{ } \n",
		`{"name":"x","logic":[],"dram":[],"storage":[],"transport":[]}`,
		`{"name":"x","end_of_life":{},"usage":{},"logic":[{"fab":{}}]}`,
		`{"version":1,"name":"héllo ✓","extra_ics":-0,"lifetime_years":-0.0e-0}`,
		`{"version":2,"name":"x"}`,
		`{"version":-3}`,
		`{"name":"x","usage":{"power_w":1E+2,"app_hours":0.125e-3,"pue":1.5}}`,
		`{"name":"x","lifetime_years":1e-400}`,
		`{"name":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
		`{"n\u0061me":"x","logic":[{"n\u0061me":"l","\u006eode":"7nm"}]}`,
		`{"name":"R\u0026D \u003Cboard\u003E \u2028 \u00e9 \u00C9 \u0000"}`,
		`{"name":"é\u00e9✓\n✓"}`,
		`{"name":"\ud83d\ude00 pair"}`,
		`{"name":"\ud83d lone high, \ude00 lone low"}`,
		`{"name":"\ud83d\u0041 high then BMP, \ud83d\ud83d\ude00 high then pair"}`,
		`{"name":"\ud83d\` + "\\" + `"}`,
		exampleWire,
		sample,
		lifecycleSample,
	} {
		data := []byte(in)
		if _, _, ok := fastSpec(data); !ok {
			t.Errorf("fast path declined %q", in)
			continue
		}
		checkFastUnmarshal(t, data)
		checkFastBatch(t, []byte("["+in+","+in+"]"))
	}
}

// TestTrailingDataRejected: a single scenario followed by anything but
// whitespace is refused by Unmarshal, Parse and ParseRequest alike, with
// encoding/json's own text for the trailer, as a batch already was.
func TestTrailingDataRejected(t *testing.T) {
	body := strings.TrimSpace(sample) + " trailing junk"
	const want = "scenario: invalid character 't' after top-level value"
	if _, err := Unmarshal([]byte(body)); errText(err) != want {
		t.Errorf("Unmarshal: %q, want %q", errText(err), want)
	}
	if _, err := Parse(strings.NewReader(body)); errText(err) != want {
		t.Errorf("Parse: %q, want %q", errText(err), want)
	}
	if _, _, err := ParseRequest(strings.NewReader(body)); errText(err) != want {
		t.Errorf("ParseRequest: %q, want %q", errText(err), want)
	}
	if _, _, err := ParseRequest(strings.NewReader("[" + body + "]")); err == nil {
		t.Error("ParseRequest accepted a batch element with trailing data")
	}
	// Whitespace after the object is not trailing data.
	if _, err := Parse(strings.NewReader(sample + "\n\n  \t")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestFastBatchMatchesElementwise: a batch decoded in one pass yields the
// same specs as decoding each element on its own, and the index of the
// first bad version.
func TestFastBatchMatchesElementwise(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, s := range []*Spec{Example(), {Name: "b", Version: 1}, Example()} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(data)
	}
	buf.WriteByte(']')
	specs, batch, err := ParseRequest(bytes.NewReader(buf.Bytes()))
	if err != nil || !batch || len(specs) != 3 {
		t.Fatalf("specs %d, batch %v, err %v", len(specs), batch, err)
	}
	if !reflect.DeepEqual(specs[0], specs[2]) || specs[1].Name != "b" {
		t.Errorf("elements decoded out of place: %+v", specs)
	}
	checkFastBatch(t, buf.Bytes())

	bad := bytes.Replace(buf.Bytes(), []byte(`"version":1,"name":"b"`), []byte(`"version":4,"name":"b"`), 1)
	_, _, err = ParseRequest(bytes.NewReader(bad))
	if want := "scenario: batch: invalid spec field [1]: scenario: unsupported scenario version 4 (this library speaks version 1)"; errText(err) != want {
		t.Errorf("error %q, want %q", errText(err), want)
	}
	checkFastBatch(t, bad)
}
