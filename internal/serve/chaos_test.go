//go:build faultinject

// The chaos suite: actd under seeded fault injection. Build and run with
//
//	go test -race -tags faultinject ./internal/serve/
//
// (make verify-chaos). Hooks at the four injection sites — cache compute,
// pool worker, memdb lookup, script eval — throw latency, transient errors and panics
// from a deterministic PRNG while concurrent clients hammer the API. The
// assertions are the resilience contract: every request answers with a
// status from the taxonomy, nothing deadlocks, no goroutine outlives the
// storm, and once faults clear the service returns byte-identical results
// on the first request.

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"act/internal/acterr"
	"act/internal/faultinject"
	"act/internal/scenario"
	"act/internal/script"
)

// chaosRNG is a splitmix64 stream behind a mutex: hooks fire from many
// goroutines but the fault sequence stays reproducible for one seed.
type chaosRNG struct {
	mu sync.Mutex
	s  uint64
}

func (r *chaosRNG) next() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pct draws a number in [0,100).
func (r *chaosRNG) pct() uint64 { return r.next() % 100 }

// registerStorm installs hooks at every injection site. Rates are per
// visit: a mix of clean passes, short latency, transient errors, and (at
// the cache site) the occasional panic to exercise the panic barrier.
func registerStorm(rng *chaosRNG) {
	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 10:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected cache fault"))}
		case p < 12:
			return faultinject.Fault{Panic: "injected cache panic"}
		case p < 30:
			return faultinject.Fault{Latency: 200 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SitePoolWorker, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 5:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected pool fault"))}
		case p < 20:
			return faultinject.Fault{Latency: 100 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SiteMemdbLookup, func(string) faultinject.Fault {
		if rng.pct() < 5 {
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected memdb fault"))}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SiteScriptEval, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 10:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected script fault"))}
		case p < 25:
			return faultinject.Fault{Latency: 150 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
}

// stormDRAM is the n-th spelling of lpddr4 that memdb.Parse folds back
// to it: a case pattern, then padding on both sides.
func stormDRAM(n int) string {
	tech := []byte("lpddr4")
	for i := 0; i < 5; i++ {
		if n>>i&1 == 1 {
			tech[i] -= 'a' - 'A'
		}
	}
	n >>= 5
	return strings.Repeat(" ", n%16) + string(tech) + strings.Repeat(" ", n/16)
}

// stormSpec is testSpec(area) with its 4 GB of DRAM split over four
// modules, each with a spelling of its own (stormDRAM(4n) to
// stormDRAM(4n+3)). colbatch's pooled resolver caches resolutions by
// spelling, so every module misses it and visits the memdb.lookup site.
func stormSpec(area float64, n int) *scenario.Spec {
	s := testSpec(area)
	s.DRAM = make([]scenario.DRAMSpec, 4)
	for k := range s.DRAM {
		s.DRAM[k] = scenario.DRAMSpec{Name: fmt.Sprintf("ram%d", k), Technology: stormDRAM(4*n + k), CapacityGB: 1}
	}
	return s
}

// TestChaosStorm is the headline chaos run. Faults are injected at every
// site while concurrent clients send single and batch requests; then the
// storm stops and the same requests must evaluate cleanly and
// byte-identically.
func TestChaosStorm(t *testing.T) {
	if !faultinject.Enabled {
		t.Skip("not built with -tags faultinject")
	}
	t.Cleanup(faultinject.Reset)

	// answerBound is the longest any storm request may take to answer: the
	// request timeout, after which the request answers 504, plus slack for
	// the race detector, transport and envelope write.
	const requestTimeout, slack = 2 * time.Second, time.Second
	const answerBound = requestTimeout + slack
	_, ts := newTestServer(t, Config{Workers: 2, RequestTimeout: requestTimeout})

	// Leak baseline: after the test server is up and has served once, so
	// httptest's accept loop and keep-alive conns are part of the floor.
	if resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(49))); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup request failed: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	rng := &chaosRNG{s: 42}
	registerStorm(rng)

	// The storm: concurrent clients, mixed shapes, every response drained.
	// Every footprint scenario is new to the cache (its area carries the
	// round) and spells its DRAM differently (stormSpec), so each one that
	// passes the cache site is evaluated and visits memdb.lookup.
	const clients, rounds = 8, 12
	codeCount := make([]map[int]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		codeCount[c] = map[int]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				url := ts.URL + "/v1/footprint"
				spelling, round := (c*rounds+i)*21, float64(i)/100
				var body []byte
				switch i % 3 {
				case 0:
					body = mustJSON(t, stormSpec(float64(50+c)+round, spelling))
				case 1:
					specs := make([]*scenario.Spec, 20)
					for j := range specs {
						specs[j] = stormSpec(float64(100+c*100+j)+round, spelling+1+j)
					}
					body = mustJSON(t, specs)
				default:
					url = ts.URL + "/v1/script"
					body = scriptBody(t, fmt.Sprintf("sum(range(%d))", 10+c))
				}
				start := time.Now()
				resp, err := http.Post(url, "application/json",
					strings.NewReader(string(body)))
				if err != nil {
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				readAll(t, resp)
				resp.Body.Close()
				if el := time.Since(start); el > answerBound {
					t.Errorf("client %d round %d: answered %d after %s, bound %s",
						c, i, resp.StatusCode, el, answerBound)
				}
				codeCount[c][resp.StatusCode]++
			}
		}(c)
	}
	wg.Wait()

	// Status taxonomy: under injected faults the only legal answers are
	// 200 (no fault hit the request), 500 (an injected fault or panic,
	// answered on its first attempt), 429/504 under load. Nothing answers
	// 503: no run of failures sheds a route.
	legal := map[int]bool{200: true, 429: true, 500: true, 504: true}
	saw := map[int]int{}
	for c := range codeCount {
		for code, n := range codeCount[c] {
			saw[code] += n
			if !legal[code] {
				t.Errorf("illegal status %d during fault storm (client %d, %d times)", code, c, n)
			}
		}
	}
	t.Logf("storm statuses: %v; fired: cache=%d pool=%d memdb=%d script=%d",
		saw,
		faultinject.Fired(faultinject.SiteCacheCompute),
		faultinject.Fired(faultinject.SitePoolWorker),
		faultinject.Fired(faultinject.SiteMemdbLookup),
		faultinject.Fired(faultinject.SiteScriptEval))
	if faultinject.Fired(faultinject.SiteCacheCompute) == 0 ||
		faultinject.Fired(faultinject.SitePoolWorker) == 0 ||
		faultinject.Fired(faultinject.SiteMemdbLookup) == 0 ||
		faultinject.Fired(faultinject.SiteScriptEval) == 0 {
		t.Error("fault storm never fired at a primary site — the chaos run tested nothing")
	}

	// Storm over: faults clear, and the very next request must answer
	// byte-identically to a clean evaluation.
	faultinject.Reset()
	spec := testSpec(77)
	want := expectedResult(t, spec)
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request after faults cleared: status %d, body %.200s", resp.StatusCode, body)
	}
	if string(body) != string(want) {
		t.Fatalf("post-storm result not byte-identical:\n got %.200q\nwant %.200q", body, want)
	}

	// The script surface recovers the same way: once faults clear the
	// envelope must match a direct library evaluation byte for byte.
	src := "sum(range(10))"
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		t.Fatalf("clean library eval: %v", err)
	}
	var wantScript bytes.Buffer
	if err := res.Encode(&wantScript); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/script", scriptBody(t, src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first script after faults cleared: status %d, body %.200s", resp.StatusCode, body)
	}
	if string(body) != wantScript.String() {
		t.Fatalf("post-storm script result not byte-identical:\n got %.200q\nwant %.200q", body, wantScript.Bytes())
	}

	// No goroutine outlives the storm (allow scheduler/keep-alive slack).
	leakDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("goroutines leaked through the storm: baseline=%d now=%d", baseline, runtime.NumGoroutine())
}

// TestChaosTransientFaultAnswers500 pins that a transient evaluation
// fault answers 500 on its first attempt: the site is visited once, not
// once per retry, and the answer is never a hang and never a 400
// (transient faults are not the client's fault).
func TestChaosTransientFaultAnswers500(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{})

	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		return faultinject.Fault{Err: acterr.Transient(errors.New("persistent fault"))}
	})

	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(99)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %.200s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "request_id") {
		t.Error("500 body missing request_id")
	}
	if got := faultinject.Fired(faultinject.SiteCacheCompute); got != 1 {
		t.Errorf("cache compute site fired %d times, want 1 (no retry)", got)
	}
}

// TestChaosPanicBecomesContained500 pins the panic barrier end to end: an
// injected panic in the cache compute path answers 500 on that request and
// the very next request (faults cleared) evaluates normally.
func TestChaosPanicBecomesContained500(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{})

	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		return faultinject.Fault{Panic: fmt.Sprintf("injected panic")}
	})
	resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(64)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}

	faultinject.Reset()
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d, want 200; body %.200s", resp.StatusCode, body)
	}
}

// TestChaosDeadlineCutsInjectedLatency pins cancellable fault latency: a
// hook that injects latency far beyond the request timeout must not pin
// workers — the request answers 504 promptly and workers unwind.
func TestChaosDeadlineCutsInjectedLatency(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{
		RequestTimeout: 25 * time.Millisecond,
		Workers:        2,
	})
	if resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(63))); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup request failed: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		return faultinject.Fault{Latency: 10 * time.Second}
	})

	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/v1/footprint", distinctBatch(t, 8, 0))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("504 took %s — injected latency was not cut by the deadline", el)
	}

	faultinject.Reset()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("workers pinned by injected latency: baseline=%d now=%d", baseline, runtime.NumGoroutine())
}
