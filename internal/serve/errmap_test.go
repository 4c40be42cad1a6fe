package serve

// The v1 error contract, pinned three ways: classify's mapping of
// raw error values into the envelope's closed code set, the HTTP status +
// code + field path actually served for a representative request of each
// failure class on every route, and a frozen golden body per error class.
// The conformance harness (internal/conform) exercises the same contract
// generatively; these tables are the human-readable specification of it.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"act/internal/acterr"
	"act/internal/fleet"
	"act/internal/reqid"
)

func TestWriteErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		wantCode  int
		wantClass string
		wantField string
	}{
		{"plain-error", errors.New("disk on fire"), http.StatusInternalServerError, codeInternal, ""},
		{"transient-after-retries", acterr.Transient(errors.New("pool sick")), http.StatusInternalServerError, codeInternal, ""},
		{"wrapped-transient", fmt.Errorf("eval: %w", acterr.Transient(errors.New("x"))), http.StatusInternalServerError, codeInternal, ""},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, codeTimeout, ""},
		{"wrapped-deadline", fmt.Errorf("batch: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, codeTimeout, ""},
		{"degraded-store", fleet.ErrDegraded, http.StatusServiceUnavailable, codeDegraded, ""},
		{"wrapped-degraded", fmt.Errorf("fleet: write-ahead log: %w", fleet.ErrDegraded), http.StatusServiceUnavailable, codeDegraded, ""},
		{"invalid-field", acterr.Invalid("usage.app_hours", "non-positive"), http.StatusBadRequest, codeInvalidArgument, "usage.app_hours"},
		{"invalid-no-field", acterr.Invalid("", "empty request"), http.StatusBadRequest, codeInvalidArgument, ""},
		{"prefixed-batch-element", acterr.Prefix("[2]", acterr.Invalid("node", "unknown")), http.StatusBadRequest, codeInvalidArgument, "[2].node"},
		{"unknown-node-sentinel", fmt.Errorf("fab: %w", acterr.ErrUnknownNode), http.StatusBadRequest, codeInvalidArgument, ""},
		{"unsupported-version", &acterr.UnsupportedVersionError{Version: 9}, http.StatusBadRequest, codeUnsupportedVersion, ""},
	}
	s := New(Config{Logger: discardLogger()})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/footprint", nil)
			s.writeError(w, r, c.err)
			if w.Code != c.wantCode {
				t.Errorf("code = %d, want %d", w.Code, c.wantCode)
			}
			e := decodeError(t, w.Body.Bytes())
			if e.Code != c.wantClass {
				t.Errorf("error code = %q, want %q", e.Code, c.wantClass)
			}
			if e.Field != c.wantField {
				t.Errorf("field = %q, want %q", e.Field, c.wantField)
			}
			if e.Message == "" {
				t.Error("error body has no message")
			}
		})
	}
}

// TestFootprintStatusMapping drives one request per failure class through
// the real handler stack and pins the served status, envelope code and
// field path.
func TestFootprintStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 3, MaxBodyBytes: 4096})
	url := ts.URL + "/v1/footprint"

	valid := `{"name": "ok", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`
	// wantMessage pins the full envelope message for the single-object
	// rows, so a drift in the wording — not only in the field — fails
	// here. Array rows leave it empty and pin code and field only.
	cases := []struct {
		name        string
		body        string
		wantCode    int
		wantClass   string
		wantField   string
		wantMessage string
	}{
		{"valid", valid, http.StatusOK, "", "", ""},
		{"unknown-node", strings.Replace(valid, `"7nm"`, `"quantum"`, 1), http.StatusBadRequest, codeInvalidArgument, "logic[0]",
			`parsweep: item 0: scenario: logic "soc": invalid spec field logic[0]: fab: unknown process node: cannot parse "quantum"`},
		{"bad-dram-tech", `{"name": "x", "dram": [{"name": "m", "technology": "sram-9000", "capacity_gb": 8}], "usage": {"power_w": 5, "app_hours": 100}}`, http.StatusBadRequest, codeInvalidArgument, "dram[0].technology",
			`parsweep: item 0: scenario: dram "m": invalid spec field dram[0].technology: memdb: cannot resolve DRAM technology "sram-9000"`},
		{"app-hours-past-lifetime", strings.Replace(valid, `"app_hours": 100`, `"app_hours": 1e6`, 1), http.StatusBadRequest, codeInvalidArgument, "usage.app_hours",
			`parsweep: item 0: scenario: invalid spec field usage.app_hours: app_hours 1e+06 exceeds the 3-year lifetime`},
		{"unsupported-version", `{"version": 2, ` + valid[1:], http.StatusBadRequest, codeUnsupportedVersion, "",
			`scenario: unsupported scenario version 2 (this library speaks version 1)`},
		{"unknown-wire-field", `{"bogus": 1, ` + valid[1:], http.StatusBadRequest, codeInvalidArgument, "",
			`scenario: json: unknown field "bogus"`},
		{"malformed-json", `{"name": "x"`, http.StatusBadRequest, codeInvalidArgument, "", `scenario: unexpected EOF`},
		{"trailing-data", valid + ` trailing junk`, http.StatusBadRequest, codeInvalidArgument, "",
			`scenario: invalid character 't' after top-level value`},
		{"batch-trailing-data", `[` + valid + `] trailing junk`, http.StatusBadRequest, codeInvalidArgument, "", ""},
		{"empty-body", ``, http.StatusBadRequest, codeInvalidArgument, "", `scenario: invalid spec: empty request body`},
		{"empty-batch", `[]`, http.StatusBadRequest, codeInvalidArgument, "", ""},
		{"batch-bad-element", `[` + valid + `, {"name": "broken"}]`, http.StatusBadRequest, codeInvalidArgument, "[1]", ""},
		{"batch-bad-element-field", `[` + valid + `, ` + strings.Replace(valid, `"app_hours": 100`, `"app_hours": -1`, 1) + `]`, http.StatusBadRequest, codeInvalidArgument, "[1].usage.app_hours", ""},
		{"batch-over-max", `[` + valid + `,` + valid + `,` + valid + `,` + valid + `]`, http.StatusRequestEntityTooLarge, codeTooLarge, "", ""},
		{"body-over-max", `{"pad": "` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, "", `request body exceeds 4096 bytes`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, data := postJSON(t, url, []byte(c.body))
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status = %d, want %d (body %.200s)", resp.StatusCode, c.wantCode, data)
			}
			if c.wantCode == http.StatusOK {
				return
			}
			e := decodeError(t, data)
			if e.Code != c.wantClass {
				t.Errorf("error code = %q, want %q", e.Code, c.wantClass)
			}
			if e.Field != c.wantField {
				t.Errorf("field = %q, want %q", e.Field, c.wantField)
			}
			if c.wantMessage != "" && e.Message != c.wantMessage {
				t.Errorf("message = %q, want %q", e.Message, c.wantMessage)
			}
		})
	}

	// Method misuse is the router's 405, not a handler error.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/footprint = %d, want 405", resp.StatusCode)
	}
}

// TestErrorContractAllRoutes extends the contract table to every v1 route:
// one representative failing request per route and failure class, pinning
// status, envelope code and field path. The fleet/summary rows double as
// the query-binder regression table — ?top=x, ?top=-3 and ?by=color must
// come back as 400s rooted at query.top / query.by.
func TestErrorContractAllRoutes(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 3, MaxBodyBytes: 4096})
	s.AttachExporter(&fakeExporter{interval: 10e9, rate: 0})

	missingRegion := `{"id":"d1","deployed":"2024-01-01","utilization":0.5,"scenario":{"name":"x","logic":[{"name":"soc","area_mm2":10,"node":"7nm"}],"usage":{"power_w":5,"app_hours":100}}}`
	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		wantCode  int
		wantClass string
		wantField string
	}{
		{"sweep-malformed", "POST", "/v1/sweep", `{`, http.StatusBadRequest, codeInvalidArgument, ""},
		{"sweep-over-max", "POST", "/v1/sweep", `{"pad":"` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, ""},
		{"ingest-missing-region", "POST", "/v1/fleet/devices", missingRegion, http.StatusBadRequest, codeInvalidArgument, "device[0].region"},
		{"summary-top-not-a-number", "GET", "/v1/fleet/summary?top=x", "", http.StatusBadRequest, codeInvalidArgument, "query.top"},
		{"summary-top-negative", "GET", "/v1/fleet/summary?top=-3", "", http.StatusBadRequest, codeInvalidArgument, "query.top"},
		{"summary-by-unknown", "GET", "/v1/fleet/summary?by=color", "", http.StatusBadRequest, codeInvalidArgument, "query.by"},
		{"delete-absent-device", "DELETE", "/v1/fleet/devices/ghost", "", http.StatusNotFound, codeNotFound, ""},
		{"export-put-zero-interval", "PUT", "/v1/export/config", `{"version":1,"interval_ms":0}`, http.StatusBadRequest, codeInvalidArgument, "interval_ms"},
		{"export-put-negative-rate", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"rate_bytes_per_sec":-1}`, http.StatusBadRequest, codeInvalidArgument, "rate_bytes_per_sec"},
		{"export-put-urls-readonly", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"urls":["http://x"]}`, http.StatusBadRequest, codeInvalidArgument, "urls"},
		{"export-put-unknown-field", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"bogus":true}`, http.StatusBadRequest, codeInvalidArgument, ""},
		{"export-put-stale-version", "PUT", "/v1/export/config", `{"version":99,"interval_ms":1000}`, http.StatusConflict, codeConflict, "version"},
	}
	// do sends one row's request and checks the envelope it gets back.
	do := func(t *testing.T, base, method, path, reqBody string, wantCode int, wantClass, wantField string) errorDetail {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != wantCode {
			t.Fatalf("status = %d, want %d (body %.200s)", resp.StatusCode, wantCode, data)
		}
		e := decodeError(t, []byte(data))
		if e.Code != wantClass {
			t.Errorf("error code = %q, want %q", e.Code, wantClass)
		}
		if e.Field != wantField {
			t.Errorf("field = %q, want %q", e.Field, wantField)
		}
		if e.RequestID == "" {
			t.Error("error body missing request_id")
		}
		return e
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			do(t, ts.URL, c.method, c.path, c.body, c.wantCode, c.wantClass, c.wantField)
		})
	}

	// The rows below also pin the message. "main" is the server above
	// (exporter attached, cluster mode off); "member" is a one-member
	// cluster with no exporter and a 1000-step script budget.
	member, memberTS := newTestServer(t, Config{MaxBatch: 3, MaxBodyBytes: 4096, ScriptMaxSteps: 1000})
	if err := member.EnableCluster(ClusterConfig{Self: memberTS.URL, Peers: []string{memberTS.URL}}); err != nil {
		t.Fatal(err)
	}
	bases := map[string]string{"main": ts.URL, "member": memberTS.URL}
	cand := `{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}`
	pad := strings.Repeat("x", 8192)
	more := []struct {
		name, srv, method, path, body string
		wantCode                      int
		wantClass, wantField, wantMsg string
	}{
		{"script-empty-source", "main", "POST", "/v1/script", `{"source":""}`, http.StatusBadRequest, codeInvalidArgument, "source",
			"invalid spec field source: a program is required"},
		{"script-unknown-field", "main", "POST", "/v1/script", `{"source":"1","bogus":true}`, http.StatusBadRequest, codeInvalidArgument, "",
			`parsing script request: json: unknown field "bogus"`},
		{"script-parse-error", "main", "POST", "/v1/script", `{"source":"let = 3"}`, http.StatusBadRequest, codeInvalidScript, "",
			`script:1:5: expected variable name after let, found "="`},
		{"script-step-budget", "member", "POST", "/v1/script", `{"source":"let n = 0\nfor i in range(1000000) { n = n + 1 }\nn"}`, http.StatusBadRequest, codeScriptBudget, "",
			"script budget exhausted: steps limit 1000 reached"},
		{"script-over-max", "main", "POST", "/v1/script", `{"source":"` + pad + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, "",
			"request body exceeds 4096 bytes"},
		{"sweep-no-candidates", "main", "POST", "/v1/sweep", `{"rank":["CDP"]}`, http.StatusBadRequest, codeInvalidArgument, "candidates",
			"invalid spec field candidates: at least one candidate is required"},
		{"sweep-asks-nothing", "main", "POST", "/v1/sweep", `{"candidates":[` + cand + `]}`, http.StatusBadRequest, codeInvalidArgument, "rank",
			`invalid spec field rank: request asks for nothing: set "rank" and/or "pareto"`},
		{"sweep-unknown-metric", "main", "POST", "/v1/sweep", `{"candidates":[` + cand + `],"rank":["XYZ"]}`, http.StatusBadRequest, codeInvalidArgument, "rank",
			`invalid spec field rank: metrics: unknown metric "XYZ"`},
		{"sweep-one-pareto-axis", "main", "POST", "/v1/sweep", `{"candidates":[` + cand + `],"pareto":["energy"]}`, http.StatusBadRequest, codeInvalidArgument, "pareto",
			"invalid spec field pareto: a Pareto frontier needs at least two objectives, got 1"},
		{"sweep-unknown-axis", "main", "POST", "/v1/sweep", `{"candidates":[` + cand + `],"pareto":["energy","beauty"]}`, http.StatusBadRequest, codeInvalidArgument, "pareto[1]",
			`invalid spec field pareto[1]: unknown objective "beauty" (want embodied, energy, delay or area)`},
		{"sweep-non-finite-value", "main", "POST", "/v1/sweep", `{"candidates":[{"name":"a","embodied_g":1e300,"energy_j":1e300,"delay_s":1},{"name":"b","embodied_g":1,"energy_j":1,"delay_s":1}],"rank":["CEP"]}`,
			http.StatusBadRequest, codeInvalidArgument, "candidates[0]",
			"invalid spec field candidates[0]: CEP value +Inf is not a finite number"},
		{"sweep-delay-out-of-range", "main", "POST", "/v1/sweep", `{"candidates":[` + cand + `,{"name":"b","embodied_g":1,"energy_j":1,"delay_s":1e300}],"rank":["CDP"]}`,
			http.StatusBadRequest, codeInvalidArgument, "candidates[1].delay_s",
			"invalid spec field candidates[1].delay_s: metrics: delay 1e+300 s is outside time.Duration's range of ±9.223372036854776e+09 s"},
		{"cluster-partial-off", "main", "GET", "/v1/cluster/partial", "", http.StatusNotFound, codeNotFound, "", "cluster mode is not enabled"},
		{"cluster-snapshot-off", "main", "GET", "/v1/cluster/snapshot", "", http.StatusNotFound, codeNotFound, "", "cluster mode is not enabled"},
		{"cluster-prepare-off", "main", "POST", "/v1/cluster/recompute/prepare", `{"epoch":1}`, http.StatusNotFound, codeNotFound, "", "cluster mode is not enabled"},
		{"cluster-commit-off", "main", "POST", "/v1/cluster/recompute/commit", `{"epoch":1}`, http.StatusNotFound, codeNotFound, "", "cluster mode is not enabled"},
		{"cluster-abort-off", "main", "POST", "/v1/cluster/recompute/abort", `{"epoch":1}`, http.StatusNotFound, codeNotFound, "", "cluster mode is not enabled"},
		{"cluster-prepare-malformed", "member", "POST", "/v1/cluster/recompute/prepare", `{`, http.StatusBadRequest, codeInvalidArgument, "", "unexpected EOF"},
		{"cluster-commit-malformed", "member", "POST", "/v1/cluster/recompute/commit", `not json`, http.StatusBadRequest, codeInvalidArgument, "",
			"invalid character 'o' in literal null (expecting 'u')"},
		{"cluster-abort-malformed", "member", "POST", "/v1/cluster/recompute/abort", `{"epoch":-1}`, http.StatusBadRequest, codeInvalidArgument, "",
			"json: cannot unmarshal number -1 into Go struct field .epoch of type uint64"},
		{"cluster-prepare-over-max", "member", "POST", "/v1/cluster/recompute/prepare", `{"epoch":1,"pad":"` + pad + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, "",
			"request body exceeds 4096 bytes"},
		{"cluster-partial-top-not-a-number", "member", "GET", "/v1/cluster/partial?top=x", "", http.StatusBadRequest, codeInvalidArgument, "top",
			`cannot parse top-K "x"`},
		{"cluster-partial-by-unknown", "member", "GET", "/v1/cluster/partial?by=color", "", http.StatusBadRequest, codeInvalidArgument, "by",
			`unknown group dimension "color"`},
		{"export-get-no-exporter", "member", "GET", "/v1/export/config", "", http.StatusNotFound, codeNotFound, "",
			"telemetry export is not configured on this server"},
		{"export-put-no-exporter", "member", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000}`, http.StatusNotFound, codeNotFound, "",
			"telemetry export is not configured on this server"},
		{"export-put-over-cap", "main", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"pad":"` + strings.Repeat("x", 1<<16) + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, "",
			"request body exceeds 65536 bytes"},
	}
	for _, c := range more {
		t.Run(c.name, func(t *testing.T) {
			e := do(t, bases[c.srv], c.method, c.path, c.body, c.wantCode, c.wantClass, c.wantField)
			if e.Message != c.wantMsg {
				t.Errorf("message = %q, want %q", e.Message, c.wantMsg)
			}
		})
	}
}

var updateErrorGolden = flag.Bool("update-error-golden", false,
	"rewrite internal/serve/testdata/errors/*.golden from the current envelope rendering")

// TestErrorEnvelopeGolden freezes one envelope body per error class. The
// request id is preset (the middleware honors sane client-provided
// X-Request-Id values) so the bytes are deterministic. A diff here is an
// API-contract change: clients parse these bodies.
func TestErrorEnvelopeGolden(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	cases := []struct {
		class string
		write func(w http.ResponseWriter, r *http.Request)
	}{
		{codeInvalidArgument, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, acterr.Invalid("query.top", "cannot parse top-K %q", "x"))
		}},
		{codeUnsupportedVersion, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, &acterr.UnsupportedVersionError{Version: 9})
		}},
		{codeTooLarge, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, newAPIError(http.StatusRequestEntityTooLarge, codeTooLarge, "",
				"batch of 4 scenarios exceeds the limit of 3"))
		}},
		{codeNotFound, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, newAPIError(http.StatusNotFound, codeNotFound, "", `no device "ghost"`))
		}},
		{codeConflict, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, newAPIError(http.StatusConflict, codeConflict, "version",
				"export config changed since it was read; GET it again"))
		}},
		{codeOverloaded, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, newAPIError(http.StatusTooManyRequests, codeOverloaded, "",
				"overloaded: admission queue is full"))
		}},
		{codeUnavailable, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, errDraining)
		}},
		{codeDegraded, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, fmt.Errorf("fleet: write-ahead log: %w", fleet.ErrDegraded))
		}},
		{codeTimeout, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, context.DeadlineExceeded)
		}},
		{codeInternal, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, errors.New("disk on fire"))
		}},
	}
	for _, c := range cases {
		t.Run(c.class, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, "/v1/test", nil)
			r = r.WithContext(reqid.With(r.Context(), "golden-"+c.class))
			w := httptest.NewRecorder()
			c.write(w, r)
			path := filepath.Join("testdata", "errors", c.class+".golden")
			if *updateErrorGolden {
				if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update-error-golden): %v", err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("error envelope drifted from its frozen golden.\n"+
					"If intentional, regenerate with -update-error-golden and call it out in review.\n\ngot:\n%s\nwant:\n%s",
					w.Body.Bytes(), want)
			}
		})
	}

	// The golden set and the closed code set must stay in lockstep: a new
	// code needs a frozen body, a removed one needs its golden deleted.
	ents, err := os.ReadDir(filepath.Join("testdata", "errors"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(cases) {
		t.Errorf("testdata/errors has %d goldens, the closed code set has %d classes", len(ents), len(cases))
	}
}
