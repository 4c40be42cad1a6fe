package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"act/internal/scenario"
	"act/internal/script"
)

// scriptBody builds the POST /v1/script request body around a program.
func scriptBody(t *testing.T, source string) []byte {
	t.Helper()
	return mustJSON(t, map[string]any{"source": source})
}

func TestScriptOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `let xs = [1, 2, 3]
emit("total", sum(xs))
sum(xs) * 10`
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	// The service answer must be byte-identical to direct library use.
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("service response differs from library Eval:\n%s\nwant:\n%s", body, want.Bytes())
	}
}

// TestScriptFootprintDoc proves the byte-identity chain through the host
// API: a program that returns footprint_doc(spec) carries the canonical
// result document (as a JSON string) through the HTTP surface unchanged.
func TestScriptFootprintDoc(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := scenario.Example()
	specJSON, err := scenario.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := "footprint_doc(" + string(specJSON) + ")"
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("footprint_doc over HTTP differs from library Eval:\n%s\nwant:\n%s", body, want.Bytes())
	}
	doc := expectedResult(t, spec)
	if !bytes.Contains(body, mustJSON(t, string(doc))) {
		t.Errorf("response does not embed the canonical result document:\n%s", body)
	}
}

func TestScriptParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, "let = 3"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeInvalidScript {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeInvalidScript, body)
	}
}

func TestScriptRuntimeError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, `1 / 0`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeInvalidScript {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeInvalidScript, body)
	}
}

func TestScriptBudgetSteps(t *testing.T) {
	_, ts := newTestServer(t, Config{ScriptMaxSteps: 1000})
	src := `let n = 0
for i in range(1000000) { n = n + 1 }
n`
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, src))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeScriptBudget {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeScriptBudget, body)
	}
}

func TestScriptBudgetDeadline(t *testing.T) {
	// The script's own wall-clock budget lapses while the request deadline
	// is still comfortable: that is the program's fault, so 400.
	_, ts := newTestServer(t, Config{
		ScriptTimeout:  30 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
	})
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, `let n = 0
for n < 1 { }`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeScriptBudget {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeScriptBudget, body)
	}
}

func TestScriptRequestTimeoutOutranksBudget(t *testing.T) {
	// The request deadline lapses before the script budget: the infra is
	// answering for its own deadline, so 504/timeout, not script_budget.
	_, ts := newTestServer(t, Config{
		RequestTimeout: 30 * time.Millisecond,
		ScriptTimeout:  10 * time.Second,
	})
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, `let n = 0
for n < 1 { }`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeTimeout {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeTimeout, body)
	}
}

func TestScriptBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     []byte
		wantCode string
	}{
		{"not json", []byte(`{{`), codeInvalidArgument},
		{"unknown field", []byte(`{"source": "1", "bogus": true}`), codeInvalidArgument},
		{"missing source", []byte(`{}`), codeInvalidArgument},
		{"bad version", []byte(`{"version": 99, "source": "1"}`), codeUnsupportedVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/script", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			if det := decodeError(t, body); det.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (body %s)", det.Code, tc.wantCode, body)
			}
		})
	}
}

func TestScriptBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := bytes.Repeat([]byte("1"), 256)
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, string(big)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeTooLarge {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeTooLarge, body)
	}
}

func TestScriptInvalidScenarioInProgram(t *testing.T) {
	// A broken scenario handed to footprint() is the program's fault:
	// invalid_script, not invalid_argument.
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, `footprint({"version": 1})`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeInvalidScript {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeInvalidScript, body)
	}
}

func TestScriptUnencodableResultCountedOnce(t *testing.T) {
	// A program whose value cannot be encoded answers invalid_script, and
	// the evaluation counts once, under that code only.
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, `fn(x) { x }`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if det := decodeError(t, body); det.Code != codeInvalidScript {
		t.Errorf("code = %q, want %q (body %s)", det.Code, codeInvalidScript, body)
	}
	expo := s.reg.Render()
	if !strings.Contains(expo, `actd_script_evals_total{code="invalid_script"} 1`) ||
		strings.Contains(expo, `actd_script_evals_total{code="ok"}`) {
		t.Errorf("script outcome counters wrong:\n%s", expo)
	}
}

// FuzzScriptRequestDecode holds decodeScript, the one-pass body decode
// with its decodeJSON fallback, to decodeJSON alone: the same request, or
// the same error text.
func FuzzScriptRequestDecode(f *testing.F) {
	for _, s := range []string{
		`{"source":"1"}`,
		`{"version":1,"source":"let x = \"a\\nb\"\n# é &\nx"}`,
		` { "source" : "x" , "version" : 0 } `,
		`{"source":"😀 \ud800  "}`,
		`{"source":""}`,
		`{}`,
		`{"version":2,"source":"x"}`,
		`{"version":1.5,"source":"x"}`,
		`{"version":99999999999999999999}`,
		`{"Source":"x"}`,
		`{"source":null}`,
		`{"source":1}`,
		`{"source":"x","source":"y"}`,
		`{"source":"x"} trailing`,
		`{"source":"x"}{}`,
		`{"bogus":1}`,
		"{\"source\":\"\xff\"}",
		"{\"source\":\"a\x00b\"}",
		`{"source":"\q"}`,
		`{"source":"x`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := decodeScript(data)
		var want scriptRequest
		werr := decodeJSON(data, "script request", &want)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("decoding %q: error %v, oracle %v", data, gerr, werr)
		}
		if werr == nil && got != want {
			t.Fatalf("decoding %q: %+v, oracle %+v", data, got, want)
		}
	})
}

// TestReadBodyContentLength: the body reads whole whatever Content-Length
// declares, and a declared length past the limit sizes the buffer at the
// limit, not at the claim.
func TestReadBodyContentLength(t *testing.T) {
	const limit = 64
	s := New(Config{MaxBodyBytes: limit, Logger: discardLogger()})
	body := strings.Repeat("b", 40)
	for _, cl := range []int64{-1, 0, 10, 40, 41, limit, 1 << 40} {
		r := httptest.NewRequest(http.MethodPost, "/v1/script", strings.NewReader(body))
		r.ContentLength = cl
		got, err := s.readBody(httptest.NewRecorder(), r)
		if err != nil || string(got) != body {
			t.Fatalf("Content-Length %d: read %q, %v", cl, got, err)
		}
		if cl >= 40 && cap(got) > int(min(cl, limit))+1 {
			t.Fatalf("Content-Length %d: buffer capacity %d", cl, cap(got))
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/script", strings.NewReader(strings.Repeat("b", limit+1)))
	var tooLarge *http.MaxBytesError
	if _, err := s.readBody(httptest.NewRecorder(), r); !errors.As(err, &tooLarge) {
		t.Fatalf("a body past the limit read with %v, want *http.MaxBytesError", err)
	}
}
