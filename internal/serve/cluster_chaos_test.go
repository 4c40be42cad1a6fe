//go:build faultinject

// Cluster chaos: the scatter-gather path under seeded fault injection at
// the two cluster sites — the inter-node RPC (cluster.rpc) and the
// coordinator fold (cluster.fold). Build and run with
//
//	go test -race -tags faultinject ./internal/serve/
//
// (make verify-chaos). Concurrent clients hammer summaries and scattered
// ingests while the hooks throw latency and transient errors; the
// assertions are the cluster resilience contract: every answer comes from
// the closed taxonomy (full, partial, or a typed failure — never a hang
// or an untyped status), and once the faults clear the cluster refolds
// byte-identically to its pre-storm answer.

package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"act/internal/acterr"
	"act/internal/faultinject"
)

// registerClusterStorm installs the cluster-site hooks: transient errors
// and short latency at the RPC boundary, occasional transient errors in
// the fold.
func registerClusterStorm(rng *chaosRNG) {
	faultinject.Register(faultinject.SiteClusterRPC, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 12:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected cluster rpc fault"))}
		case p < 30:
			return faultinject.Fault{Latency: 150 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SiteClusterFold, func(string) faultinject.Fault {
		if rng.pct() < 8 {
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected fold fault"))}
		}
		return faultinject.Fault{}
	})
}

// TestChaosClusterStorm is the cluster chaos headline run.
func TestChaosClusterStorm(t *testing.T) {
	if !faultinject.Enabled {
		t.Skip("not built with -tags faultinject")
	}
	t.Cleanup(faultinject.Reset)

	_, _, urls := newTestCluster(t, 2, Config{Workers: 2}, ClusterConfig{
		RetryAttempts:  3,
		BreakerOpenFor: 30 * time.Millisecond,
	})

	lines := clusterFleetLines(t, 80)
	resp, err := http.Post(urls[0]+"/v1/fleet/devices", "application/x-ndjson", bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: %d", resp.StatusCode)
	}

	// The clean answer every storm survivor must refold to.
	resp, err = http.Get(urls[0] + "/v1/fleet/summary?top=5&by=region")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean summary: %d %.200s", resp.StatusCode, want)
	}

	rng := &chaosRNG{s: 77}
	registerClusterStorm(rng)

	// The storm: summaries from both coordinators and re-ingests of the
	// same fleet (idempotent upserts) racing the injected faults.
	const clients, rounds = 6, 15
	codeCount := make([]map[int]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		codeCount[c] = map[int]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var resp *http.Response
				var err error
				switch i % 3 {
				case 0:
					resp, err = http.Get(urls[c%2] + "/v1/fleet/summary")
				case 1:
					resp, err = http.Get(urls[c%2] + "/v1/fleet/summary?top=3&by=region")
				default:
					resp, err = http.Post(urls[c%2]+"/v1/fleet/devices",
						"application/x-ndjson", bytes.NewReader(lines))
				}
				if err != nil {
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codeCount[c][resp.StatusCode]++
			}
		}(c)
	}
	wg.Wait()

	// The closed cluster taxonomy under injected faults: 200 (retries
	// absorbed it), 206 (a peer was unreachable, reachable members folded),
	// 500 (a fault survived the budget), 503 (breaker open or fold fault),
	// 429/504 under load.
	legal := map[int]bool{200: true, 206: true, 429: true, 500: true, 503: true, 504: true}
	saw := map[int]int{}
	for c := range codeCount {
		for code, n := range codeCount[c] {
			saw[code] += n
			if !legal[code] {
				t.Errorf("illegal status %d during cluster storm (client %d, %d times)", code, c, n)
			}
		}
	}
	t.Logf("cluster storm statuses: %v; fired: rpc=%d fold=%d",
		saw,
		faultinject.Fired(faultinject.SiteClusterRPC),
		faultinject.Fired(faultinject.SiteClusterFold))
	if faultinject.Fired(faultinject.SiteClusterRPC) == 0 {
		t.Error("the storm never fired at cluster.rpc — the chaos run tested nothing")
	}
	if faultinject.Fired(faultinject.SiteClusterFold) == 0 {
		t.Error("the storm never fired at cluster.fold")
	}

	// Faults clear; the refold must return to the pre-storm bytes. The
	// re-ingested lines are idempotent upserts, so the fleet state — and
	// therefore the document — is unchanged.
	faultinject.Reset()
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(urls[1] + "/v1/fleet/summary?top=5&by=region")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if !bytes.Equal(got, want) {
				t.Fatalf("post-storm refold not byte-identical:\n got %.300s\nwant %.300s", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not recover after faults cleared: %d %.200s", resp.StatusCode, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
