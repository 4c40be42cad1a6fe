package serve

import (
	"bytes"
	"context"
	"net/http"
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
