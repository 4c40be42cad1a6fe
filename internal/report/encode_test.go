package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Adversarial scalars: the float formatting cutoffs on both sides, signed
// zero, subnormals and extremes; every escape class, invalid UTF-8 and the
// JS line separators.
var (
	scalarFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 3.14159, 1e-6, 9.999999e-7, 1e-7,
		1e21, 9.99999e20, -1e21, 1e-300, 1e300, 150, 876.6, 1.0 / 3.0,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123456789,
		2.2250738585072014e-308, 0.1, 0.30000000000000004,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	scalarStrings = []string{
		"", "plain", "with space", `quote " and \ backslash`,
		"<script>&amp;</script>", "tab\tnewline\ncr\rbackspace\bformfeed\f",
		"\x00\x01\x1f\x7f", "valid ü 日本語 🌍", "invalid \x80\xfe bytes",
		"line\u2028and\u2029separators", strings.Repeat("é<", 100),
		"trailing invalid \xc3",
	}
)

// checkFloat holds AppendJSONFloat to encoding/json: the same bytes for a
// finite value, and a refusal that appends nothing for a non-finite one.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	prefix := []byte("x")
	got, ok := AppendJSONFloat(prefix, f)
	want, err := json.Marshal(f)
	if err != nil {
		if ok || string(got) != "x" {
			t.Errorf("float %v: stdlib rejects it, AppendJSONFloat gave %q, %v", f, got, ok)
		}
		return
	}
	if !ok || string(got) != "x"+string(want) {
		t.Errorf("float %v (bits %#x): got %q, %v; stdlib %s", f, math.Float64bits(f), got, ok, want)
	}
}

// checkString holds AppendJSONString to an encoding/json Encoder (not
// Marshal's buffer, to match Encode's HTML-escaping default exactly).
func checkString(t *testing.T, s string) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("stdlib rejected %q: %v", s, err)
	}
	want := strings.TrimSuffix(buf.String(), "\n")
	if got := AppendJSONString(nil, s); string(got) != want {
		t.Errorf("string %q: got %s, stdlib %s", s, got, want)
	}
}

// TestEncoderPrimitivesMatchStdlib A/B-tests the float and string
// appenders against encoding/json over adversarial values.
func TestEncoderPrimitivesMatchStdlib(t *testing.T) {
	for _, f := range scalarFloats {
		checkFloat(t, f)
	}
	for _, s := range scalarStrings {
		checkString(t, s)
	}
}

// FuzzJSONScalars extends the A/B test to any float64 bit pattern and any
// string: every scalar of every result document and script envelope is
// written by these two appenders.
func FuzzJSONScalars(f *testing.F) {
	for i, v := range scalarFloats {
		f.Add(math.Float64bits(v), scalarStrings[i%len(scalarStrings)])
	}
	f.Fuzz(func(t *testing.T, bits uint64, s string) {
		checkFloat(t, math.Float64frombits(bits))
		checkString(t, s)
	})
}
