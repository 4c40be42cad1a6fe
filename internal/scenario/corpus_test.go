package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"unicode/utf16"
	"unicode/utf8"

	"act/internal/conform"
	"act/internal/scenario"
)

// TestFastPathAcceptsCorpus: the fast decoder answers for every generated
// corpus scenario in the forms programs write — scenario.Marshal's
// indented form and encoding/json's compact one, alone and as a batch —
// so the differential fuzzers cannot pass by a fast path that declines
// everything. (The script host's form is checked in internal/script.)
func TestFastPathAcceptsCorpus(t *testing.T) {
	corpus := conform.GenerateCorpus(1001, 1000)
	for i, spec := range corpus {
		indented, err := scenario.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			name string
			data []byte
		}{{"indented", indented}, {"compact", compact}} {
			d := scenario.NewFastDecoder(form.data)
			got, err := d.Spec()
			if !d.End() || err != nil {
				t.Fatalf("scenario %d, %s form: fast path declined (err %v)\n%s", i, form.name, err, form.data)
			}
			again, err := scenario.Marshal(got)
			if err != nil || !bytes.Equal(again, indented) {
				t.Fatalf("scenario %d, %s form: fast decode does not round-trip (err %v)", i, form.name, err)
			}
		}
	}
}

// TestFastPathAcceptsEscapedWriters: strings with escapes stay on the
// fast path in the forms real writers give them: scenario.Marshal escapes
// &, <, >, U+2028 and U+2029, and an ASCII-only writer (Python's
// json.dumps default) escapes every non-ASCII rune, astral ones as
// surrogate pairs.
func TestFastPathAcceptsEscapedWriters(t *testing.T) {
	for i, spec := range conform.GenerateCorpus(1002, 100) {
		spec.Name = fmt.Sprintf("R&D <board> %d \u2028 café ✓ 😀 \u2029", i)
		if len(spec.Logic) > 0 {
			spec.Logic[0].Node = "7nm & co"
		}
		indented, err := scenario.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(indented, []byte(`\u0026`)) {
			t.Fatalf("scenario.Marshal no longer escapes &: %s", indented)
		}
		for _, form := range []struct {
			name string
			data []byte
		}{{"scenario.Marshal", indented}, {"ASCII-only", asciiOnly(indented)}} {
			d := scenario.NewFastDecoder(form.data)
			got, err := d.Spec()
			if !d.End() || err != nil {
				t.Fatalf("scenario %d, %s form: fast path declined (err %v)\n%s", i, form.name, err, form.data)
			}
			again, err := scenario.Marshal(got)
			if err != nil || !bytes.Equal(again, indented) {
				t.Fatalf("scenario %d, %s form: fast decode does not round-trip (err %v)", i, form.name, err)
			}
		}
	}
}

// asciiOnly rewrites every non-ASCII rune of a JSON text as \uXXXX
// escapes, as an ASCII-only writer does. Such runes occur only inside
// strings, so the result is the same document.
func asciiOnly(data []byte) []byte {
	var out []byte
	for _, r := range string(data) {
		if r < utf8.RuneSelf {
			out = append(out, byte(r))
			continue
		}
		units := []rune{r}
		if r1, r2 := utf16.EncodeRune(r); r1 != utf8.RuneError {
			units = []rune{r1, r2}
		}
		for _, u := range units {
			out = fmt.Appendf(out, `\u%04x`, u)
		}
	}
	return out
}

// batchBody renders specs as one /v1/footprint batch array of indented
// scenario.Marshal documents, as the repository benchmark sends them.
func batchBody(tb testing.TB, specs []*scenario.Spec) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, s := range specs {
		b, err := scenario.Marshal(s)
		if err != nil {
			tb.Fatal(err)
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(bytes.TrimRight(b, "\n"))
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

var parsedSink []*scenario.Spec

const benchBatch = 256

// BenchmarkParseRequest decodes a 256-scenario batch body, the size of a
// repository-benchmark batch, and reports the decode cost per scenario.
func BenchmarkParseRequest(b *testing.B) {
	benchParseRequest(b, batchBody(b, conform.GenerateCorpus(3, benchBatch)))
}

// BenchmarkParseRequestEscaped is BenchmarkParseRequest with one name in
// the batch that scenario.Marshal escapes ("R&D board" is written with
// \u0026): the cost of a string escape in an otherwise plain body.
func BenchmarkParseRequestEscaped(b *testing.B) {
	specs := conform.GenerateCorpus(3, benchBatch)
	specs[benchBatch/2].Name = "R&D board"
	benchParseRequest(b, batchBody(b, specs))
}

// BenchmarkParseRequestDeclined is BenchmarkParseRequest with a
// case-variant key ("Name") in the last element. The fast path declines
// it only there, so the body pays a whole fast attempt and then the
// encoding/json path: the worst case for input outside the fast subset.
func BenchmarkParseRequestDeclined(b *testing.B) {
	body := batchBody(b, conform.GenerateCorpus(3, benchBatch))
	i := bytes.LastIndex(body, []byte(`"name":`))
	body = append(body[:i:i], append([]byte(`"Name":`), body[i+len(`"name":`):]...)...)
	benchParseRequest(b, body)
}

func benchParseRequest(b *testing.B, body []byte) {
	const n = benchBatch
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs, _, err := scenario.ParseRequest(bytes.NewReader(body))
		if err != nil || len(specs) != n {
			b.Fatalf("%d specs, err %v", len(specs), err)
		}
		parsedSink = specs
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/scenario")
}
