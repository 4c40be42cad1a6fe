package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"act/internal/scenario"
)

// discardLogger keeps test output quiet.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testSpec builds a valid scenario whose footprint varies with area.
func testSpec(area float64) *scenario.Spec {
	return &scenario.Spec{
		Name:  fmt.Sprintf("device-%g", area),
		Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: area, Node: "7nm"}},
		DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
		Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// expectedResult renders the result document exactly the way the service
// (and cmd/act -format json) does.
func expectedResult(t *testing.T, spec *scenario.Spec) []byte {
	t.Helper()
	res, err := spec.Result()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeError(t *testing.T, data []byte) errorDetail {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", data, err)
	}
	if e.Error.Code == "" {
		t.Fatalf("error body %q missing the machine-readable code", data)
	}
	return e.Error
}

func TestFootprintSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := scenario.Example()
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	if want := expectedResult(t, spec); !bytes.Equal(body, want) {
		t.Errorf("single response differs from the canonical result document:\n%s\nwant:\n%s", body, want)
	}
}

func TestFootprintBatchMirrorsOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	specs := []*scenario.Spec{testSpec(50), testSpec(120), testSpec(50)}
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, specs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var results []json.RawMessage
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatalf("batch response is not an array: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, spec := range specs {
		want := bytes.TrimRight(expectedResult(t, spec), "\n")
		if !bytes.Equal(bytes.TrimSpace(results[i]), bytes.TrimSpace(want)) {
			t.Errorf("result[%d] differs from sequential evaluation", i)
		}
	}
	// Identical specs at [0] and [2] must produce identical bytes.
	if !bytes.Equal(results[0], results[2]) {
		t.Error("duplicate specs returned different bytes")
	}
}

func TestFootprintMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/footprint", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Message == "" {
		t.Error("error body missing the error message")
	}
}

func TestFootprintEmptyBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/footprint", []byte("  \n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestFootprintUnsupportedVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := testSpec(50)
	spec.Version = 9
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, spec))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); !strings.Contains(e.Message, "version 9") {
		t.Errorf("error %q does not name the bad version", e.Message)
	}
}

func TestFootprintBatchFieldPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := testSpec(50)
	bad.Logic[0].AreaMM2 = -1 // valid JSON, fails at evaluation
	specs := []*scenario.Spec{testSpec(50), bad}
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, specs))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if !strings.HasPrefix(e.Field, "[1].") {
		t.Errorf("field = %q, want a path rooted at batch index [1]", e.Field)
	}
	if !strings.Contains(e.Field, "area_mm2") {
		t.Errorf("field = %q, want the offending leaf field", e.Field)
	}
}

func TestFootprintBatchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	specs := []*scenario.Spec{testSpec(1), testSpec(2), testSpec(3)}
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, specs))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", resp.StatusCode, body)
	}
}

func TestFootprintTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(50)))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); !strings.Contains(e.Message, "timed out") {
		t.Errorf("error %q does not mention the timeout", e.Message)
	}
}

func TestSweepRankAndPareto(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := []byte(`{
		"candidates": [
			{"name": "small", "embodied_g": 100, "energy_j": 10, "delay_s": 2, "area_mm2": 50},
			{"name": "big",   "embodied_g": 300, "energy_j": 30, "delay_s": 1, "area_mm2": 150},
			{"name": "worst", "embodied_g": 400, "energy_j": 40, "delay_s": 3, "area_mm2": 200}
		],
		"rank": ["CDP"],
		"pareto": ["embodied", "delay"]
	}`)
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Rankings) != 1 || sr.Rankings[0].Metric != "CDP" {
		t.Fatalf("rankings = %+v", sr.Rankings)
	}
	// CDP = embodied × delay: small 200, big 300, worst 1200.
	if got := sr.Rankings[0].Ranked[0].Name; got != "small" {
		t.Errorf("CDP winner = %s, want small", got)
	}
	if len(sr.Pareto) != 2 || sr.Pareto[0] == "worst" || sr.Pareto[1] == "worst" {
		t.Errorf("pareto = %v, want small and big only", sr.Pareto)
	}
}

func TestSweepRankAllShorthand(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := []byte(`{
		"candidates": [{"name": "a", "embodied_g": 1, "energy_j": 1, "delay_s": 1, "area_mm2": 1}],
		"rank": ["all"]
	}`)
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Rankings) != 6 {
		t.Errorf("got %d rankings for \"all\", want 6 (Table 2)", len(sr.Rankings))
	}
}

func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]struct {
		body      string
		wantField string
	}{
		"unknown metric": {
			body: `{"candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}], "rank": ["XXX"]}`,
		},
		"one pareto axis": {
			body:      `{"candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}], "pareto": ["embodied"]}`,
			wantField: "pareto",
		},
		"unknown pareto axis": {
			body:      `{"candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}], "pareto": ["embodied","frobs"]}`,
			wantField: "pareto[1]",
		},
		"no candidates": {
			body:      `{"candidates": [], "rank": ["CDP"]}`,
			wantField: "candidates",
		},
		"nothing requested": {
			body: `{"candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}]}`,
		},
		"unnamed candidate": {
			body:      `{"candidates": [{"embodied_g":1,"energy_j":1,"delay_s":1}], "rank": ["CDP"]}`,
			wantField: "candidates[0].name",
		},
		"invalid candidate": {
			body:      `{"candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":0}], "rank": ["CDP"]}`,
			wantField: "candidates[0]",
		},
		"unknown top-level field": {
			body: `{"candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}], "rnak": ["CDP"]}`,
		},
		"bad version": {
			body: `{"version": 3, "candidates": [{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}], "rank": ["CDP"]}`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/sweep", []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
			if e := decodeError(t, body); tc.wantField != "" && e.Field != tc.wantField {
				t.Errorf("field = %q, want %q (error: %s)", e.Field, tc.wantField, e.Message)
			}
		})
	}
}

func TestHealthzAndMethodRouting(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	// GET on a POST route is a method error, not a handler invocation.
	resp, err = http.Get(ts.URL + "/v1/footprint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET footprint = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d, want 200", resp.StatusCode)
	}

	// Draining flips readiness but never liveness: the process is still
	// alive and finishing in-flight work.
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
}

// TestBatchByteIdentityAndHitRatio is the acceptance check for the cache:
// a 1000-scenario batch with 50 distinct specs must return, per element,
// exactly the bytes a sequential evaluation produces, and the cache
// counters must show 950 hits / 50 misses.
func TestBatchByteIdentityAndHitRatio(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const total, distinct = 1000, 50
	specs := make([]*scenario.Spec, total)
	for i := range specs {
		specs[i] = testSpec(float64(10 + i%distinct))
	}
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, specs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %.200s", resp.StatusCode, body)
	}
	var results []json.RawMessage
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != total {
		t.Fatalf("got %d results, want %d", len(results), total)
	}
	// Sequential ground truth, computed once per distinct spec.
	want := make(map[string][]byte, distinct)
	for i, spec := range specs {
		key := spec.CanonicalKey()
		w, ok := want[key]
		if !ok {
			w = bytes.TrimRight(expectedResult(t, spec), "\n")
			want[key] = w
		}
		if !bytes.Equal(bytes.TrimSpace(results[i]), bytes.TrimSpace(w)) {
			t.Fatalf("result[%d] differs from sequential evaluation:\n%s\nwant:\n%s", i, results[i], w)
		}
	}

	hits, misses := s.mCacheHits.Value(), s.mCacheMisses.Value()
	if hits+misses != total {
		t.Errorf("hits+misses = %d, want %d", hits+misses, total)
	}
	if misses != distinct {
		t.Errorf("misses = %d, want %d (one per distinct spec)", misses, distinct)
	}
	if hits != total-distinct {
		t.Errorf("hits = %d, want %d", hits, total-distinct)
	}

	// The ratio must be visible on /metrics in exposition format.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metricsText, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("actd_cache_hits_total %d", hits),
		fmt.Sprintf("actd_cache_misses_total %d", misses),
		fmt.Sprintf("actd_scenarios_total %d", total),
		`actd_requests_total{handler="footprint",code="200"} 1`,
		"actd_inflight_requests 0",
		"# TYPE actd_request_duration_seconds histogram",
		"actd_request_duration_seconds_count 1",
	} {
		if !strings.Contains(string(metricsText), line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestGracefulDrain starts the server on a real listener, shuts it down
// while requests are in flight, and checks that every accepted request got
// a complete, valid response while post-drain requests get 503.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String() + "/v1/footprint"

	// Hammer with batch requests so some are in flight when the drain
	// starts. Workers stop at the first transport-level error (the closed
	// listener); every response they did receive must be complete.
	batch := make([]*scenario.Spec, 200)
	for i := range batch {
		batch[i] = testSpec(float64(10 + i))
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		complete int
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
				if err != nil {
					return // listener closed mid-connect: fine
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("truncated response during drain: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var results []json.RawMessage
					if err := json.Unmarshal(body, &results); err != nil || len(results) != len(batch) {
						t.Errorf("incomplete 200 body during drain: err=%v len=%d", err, len(results))
						return
					}
					mu.Lock()
					complete++
					mu.Unlock()
				case http.StatusServiceUnavailable:
					return // drain rejection: also a complete response
				default:
					t.Errorf("unexpected status %d during drain", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Wait until traffic is genuinely flowing, then drain. The in-flight
	// gauge alone is flaky to sample: with warm caches a whole batch can
	// finish inside the poll sleep, so a completed request counts too.
	deadline := time.Now().Add(5 * time.Second)
	for s.mInflight.Value() == 0 {
		mu.Lock()
		done := complete
		mu.Unlock()
		if done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no request went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after clean shutdown", err)
	}
	if complete == 0 {
		t.Error("no request completed before the drain")
	}
	if s.mInflight.Value() != 0 {
		t.Errorf("inflight = %d after drain, want 0", s.mInflight.Value())
	}

	// The handler itself rejects once draining, independent of the
	// (now closed) listener.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/footprint", bytes.NewReader(payload)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request = %d, want 503", rec.Code)
	}
}

// The acceptance benchmark pair: a cache hit must be at least an order of
// magnitude cheaper than a cold evaluation (model + JSON encoding). Both
// time the footprint evaluation path for a single-object request — a
// one-element batch through evalBatchColumnar. Compare with:
//
//	go test -bench 'Footprint(Cold|Cached)' -benchtime 2s ./internal/serve/

func BenchmarkFootprintCold(b *testing.B) {
	s := New(Config{CacheSize: -1, Logger: discardLogger()}) // no residency: every call evaluates
	specs := []*scenario.Spec{scenario.Example()}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.evalBatchColumnar(ctx, specs, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFootprintCached(b *testing.B) {
	s := New(Config{Logger: discardLogger()})
	specs := []*scenario.Spec{scenario.Example()}
	ctx := context.Background()
	if _, err := s.evalBatchColumnar(ctx, specs, false); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.evalBatchColumnar(ctx, specs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFootprintBatchColumnar drives the batch handler's columnar path
// with 512 distinct scenarios per iteration and residency disabled, so
// every item is a fresh columnar evaluation (the batch analog of
// BenchmarkFootprintCold).
func BenchmarkFootprintBatchColumnar(b *testing.B) {
	s := New(Config{CacheSize: -1, Logger: discardLogger()})
	specs := make([]*scenario.Spec, 512)
	for i := range specs {
		specs[i] = testSpec(float64(10 + i))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.evalBatchColumnar(ctx, specs, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(specs))/b.Elapsed().Seconds(), "scenarios/s")
}

// TestBatchHandlerAllocsDropped pins the batch handler's allocation win:
// the scalar path costs dozens of heap allocations per cold evaluation
// (result structs, encoder state, buffers); the columnar path's steady
// state is the per-item response clone plus amortized batch bookkeeping.
func TestBatchHandlerAllocsDropped(t *testing.T) {
	s := New(Config{CacheSize: -1, Logger: discardLogger()})
	specs := make([]*scenario.Spec, 256)
	for i := range specs {
		specs[i] = testSpec(float64(10 + i))
	}
	ctx := context.Background()
	if _, err := s.evalBatchColumnar(ctx, specs, true); err != nil { // warm pools + resolver caches
		t.Fatal(err)
	}
	perBatch := testing.AllocsPerRun(10, func() {
		if _, err := s.evalBatchColumnar(ctx, specs, true); err != nil {
			t.Fatal(err)
		}
	})
	perItem := perBatch / float64(len(specs))
	if perItem >= 16 {
		t.Fatalf("columnar batch path allocates %.1f allocs/item (%.0f per %d-item batch); want well under the scalar path's ~54", perItem, perBatch, len(specs))
	}
}
