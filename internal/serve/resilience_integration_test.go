package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"act/internal/resilience"
	"act/internal/scenario"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// distinctBatch builds n specs with n distinct canonical keys.
func distinctBatch(t *testing.T, n, offset int) []byte {
	t.Helper()
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = testSpec(float64(1000 + offset + i))
	}
	return mustJSON(t, specs)
}

// TestRequestIDMinting checks every API response carries an X-Request-Id,
// a sane client-provided id is echoed, a hostile one is replaced, and
// error bodies carry the id for log correlation.
func TestRequestIDMinting(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(11)))
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" {
		t.Fatal("no X-Request-Id on a minted response")
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/footprint", strings.NewReader(`{"name":`))
	req.Header.Set("X-Request-Id", "client-abc-123")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp2)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "client-abc-123" {
		t.Errorf("sane client id not echoed: got %q", got)
	}
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", resp2.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, body)
	}
	if e.Error.RequestID != "client-abc-123" {
		t.Errorf("error body request_id = %q, want the request's id", e.Error.RequestID)
	}

	req, _ = http.NewRequest("POST", ts.URL+"/v1/footprint", strings.NewReader("{}"))
	req.Header.Set("X-Request-Id", "bad id with spaces\"")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, " ") {
		t.Errorf("hostile client id not replaced: got %q", got)
	}
}

// TestRequestLogNamesErrorCode checks the request log line names the
// envelope code of a failure (a 400 and a 413) and stays without one on
// success.
func TestRequestLogNamesErrorCode(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{MaxBodyBytes: 4096, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	cases := []struct {
		body     string
		wantCode int
		wantErr  string
	}{
		{`{"name": "x"`, http.StatusBadRequest, codeInvalidArgument},
		{`{"pad": "` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge},
		{string(mustJSON(t, testSpec(11))), http.StatusOK, ""},
	}
	for _, c := range cases {
		logs.Reset()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/footprint", strings.NewReader(c.body)))
		if w.Code != c.wantCode {
			t.Fatalf("status = %d, want %d (body %s)", w.Code, c.wantCode, w.Body.Bytes())
		}
		var line struct {
			Msg       string  `json:"msg"`
			Code      int     `json:"code"`
			ErrorCode *string `json:"error_code"`
		}
		if err := json.Unmarshal(logs.Bytes(), &line); err != nil {
			t.Fatalf("request log line is not one JSON object: %v (%s)", err, logs.Bytes())
		}
		if line.Msg != "request" || line.Code != c.wantCode {
			t.Errorf("log line = %s, want the request line with code %d", logs.Bytes(), c.wantCode)
		}
		switch {
		case c.wantErr == "" && line.ErrorCode != nil:
			t.Errorf("a %d answer logged error_code %q", c.wantCode, *line.ErrorCode)
		case c.wantErr != "" && (line.ErrorCode == nil || *line.ErrorCode != c.wantErr):
			t.Errorf("a %d answer logged %s, want error_code %q", c.wantCode, logs.Bytes(), c.wantErr)
		}
	}
}

// TestSaturationSheds429 is the acceptance check for admission control:
// under a burst far beyond capacity, some requests complete (200) while
// the rest are shed with 429 + Retry-After before any work was accepted —
// and nothing else in the taxonomy appears.
func TestSaturationSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInFlight: 1,
		MaxQueue:    -1, // no wait queue: overflow sheds immediately
		Workers:     1,
		CacheSize:   -1, // every scenario runs the model, lengthening each request
	})

	const clients = 20
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer done.Done()
			body := distinctBatch(t, 3000, c*3000)
			start.Wait()
			resp, err := http.Post(ts.URL+"/v1/footprint", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return
			}
			readAll(t, resp)
			resp.Body.Close()
			codes[c] = resp.StatusCode
			retryAfter[c] = resp.Header.Get("Retry-After")
		}(c)
	}
	start.Done()
	done.Wait()

	var ok200, shed429 int
	for c, code := range codes {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if secs, err := strconv.Atoi(retryAfter[c]); err != nil || secs < 1 {
				t.Errorf("429 without a usable Retry-After: %q", retryAfter[c])
			}
		default:
			t.Errorf("client %d: status %d, want 200 or 429", c, code)
		}
	}
	if ok200 == 0 {
		t.Error("no request completed under saturation")
	}
	if shed429 == 0 {
		t.Error("no request was shed under saturation")
	}
	if got := s.mShed.Value(resilience.ShedQueueFull); got < uint64(shed429) {
		t.Errorf("actd_shed_total{queue_full} = %d, want >= %d", got, shed429)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `actd_shed_total{reason="queue_full"}`) {
		t.Error("shed counter missing from /metrics exposition")
	}
	if !strings.Contains(metrics, "actd_queue_depth 0") {
		t.Error("queue depth gauge missing or non-zero at rest")
	}
}

// TestCancelledBatchReleasesWorkers is the acceptance check for deadline
// propagation: a batch that cannot finish inside the request timeout
// answers 504 and every pool worker unwinds — no goroutine keeps
// evaluating scenarios for a request nobody is waiting on.
func TestCancelledBatchReleasesWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RequestTimeout: 15 * time.Millisecond,
		Workers:        1,
		CacheSize:      -1,
	})
	// Warm up so httptest's accept loop and the keep-alive conn goroutines
	// are part of the leak baseline. The warm-up is /healthz, which the
	// request timeout does not cover: a cold footprint under -race can take
	// most of the 15 ms budget. The footprint path starts no goroutine
	// that outlives its request (its pool workers are joined before it
	// answers), so the baseline needs nothing more from it.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup failed: %d", resp.StatusCode)
	}
	before := runtime.NumGoroutine()

	resp, body := postJSON(t, ts.URL+"/v1/footprint", distinctBatch(t, 10000, 0))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %.200s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error.RequestID == "" {
		t.Errorf("504 body missing request_id: %s", body)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 { // +2: httptest keep-alive slack
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after 504: before=%d now=%d", before, runtime.NumGoroutine())
}

// lateBody is a request body whose first Read waits out delay, so the
// server has dispatched the request, and started its timeout, before any
// of the body arrives.
type lateBody struct {
	delay time.Duration
	r     *bytes.Reader
	once  sync.Once
}

func (b *lateBody) Read(p []byte) (int, error) {
	b.once.Do(func() { time.Sleep(b.delay) })
	return b.r.Read(p)
}

// postLate posts body to url with its bytes held back for delay.
func postLate(t *testing.T, url string, body []byte, delay time.Duration) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, &lateBody{delay: delay, r: bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

// TestTimeoutRunKeepsRouteOpen pins that a run of 504s on one route sheds
// nothing after it: five footprint batches whose bodies arrive after the
// request timeout has lapsed answer 504, /readyz stays 200 throughout,
// and the next request evaluates. A timeout is the request's own
// outcome, not a sign that the route is broken.
func TestTimeoutRunKeepsRouteOpen(t *testing.T) {
	// The late body arrives twice the timeout after the headers, so the
	// evaluation finds its deadline gone whatever the machine's speed; a
	// single scenario sent whole finishes well inside 200 ms, -race included.
	const timeout = 200 * time.Millisecond
	_, ts := newTestServer(t, Config{
		RequestTimeout: timeout,
		Workers:        1,
		CacheSize:      -1,
	})
	batch := distinctBatch(t, 3, 0)
	for i := 0; i < 5; i++ {
		resp, body := postLate(t, ts.URL+"/v1/footprint", batch, 2*timeout)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("batch %d: status = %d, want 504; body %.200s", i+1, resp.StatusCode, body)
		}
		if r, body := getBody(t, ts.URL+"/readyz"); r.StatusCode != http.StatusOK {
			t.Fatalf("readyz after 504 number %d = %d, want 200; body %s", i+1, r.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(12)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after five 504s: status = %d, want 200; body %.200s", resp.StatusCode, body)
	}
	if want := expectedResult(t, testSpec(12)); string(body) != string(want) {
		t.Error("request after five 504s: result not byte-identical to a clean evaluation")
	}
	if r, body := getBody(t, ts.URL+"/readyz"); r.StatusCode != http.StatusOK {
		t.Errorf("readyz after the run = %d, want 200; body %s", r.StatusCode, body)
	}
}

// TestResilienceMetricsExposed pins the new instruments' presence and
// shape in the exposition output.
func TestResilienceMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, _ = postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(13)))
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE actd_shed_total counter",
		"# TYPE actd_queue_depth gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
