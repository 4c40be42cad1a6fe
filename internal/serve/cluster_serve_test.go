// Cluster harness for the serve-side tests: real Servers behind
// swappable httptest fronts, plus the breaker observability test that
// pins the actd_cluster_peer_breaker_state gauge through a peer's death
// and recovery. The chaos storm in cluster_chaos_test.go (faultinject
// builds only) reuses the harness.

package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"act/internal/scenario"
)

// peerFront is a mutable HTTP front for one cluster member: mark it down
// to answer 503 on everything, heal it to restore the real handler.
type peerFront struct {
	mu   sync.RWMutex
	h    http.Handler
	down bool
}

func (f *peerFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	h, down := f.h, f.down
	f.mu.RUnlock()
	if down {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"peer down (test)"}}`))
		return
	}
	h.ServeHTTP(w, r)
}

func (f *peerFront) setDown(d bool) { f.mu.Lock(); f.down = d; f.mu.Unlock() }

// newTestCluster builds an n-member loopback cluster of real Servers.
func newTestCluster(t *testing.T, n int, cfg Config, cc ClusterConfig) ([]*Server, []*peerFront, []string) {
	t.Helper()
	srvs := make([]*Server, n)
	fronts := make([]*peerFront, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		c := cfg
		if c.Logger == nil {
			c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
		srvs[i] = New(c)
		fronts[i] = &peerFront{h: srvs[i].Handler()}
		ts := httptest.NewServer(fronts[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	for i, s := range srvs {
		member := cc
		member.Self, member.Peers = urls[i], urls
		if err := s.EnableCluster(member); err != nil {
			t.Fatal(err)
		}
	}
	return srvs, fronts, urls
}

// clusterFleetLines renders n valid device lines.
func clusterFleetLines(t *testing.T, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		raw, err := scenario.Marshal(&scenario.Spec{
			Name:  fmt.Sprintf("bom-%d", i%7),
			Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(10 + i%7), Node: "7nm"}},
			Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, `{"id":"dev-%05d","region":"europe","deployed":"2024-01-01","scenario":%s}`+"\n", i, raw)
	}
	return b.Bytes()
}

// metricsBody fetches /metrics from a base URL.
func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterPeerBreakerMetrics pins the operational surface of a peer
// outage: the coordinator's per-peer breaker opens after the failure
// threshold and the actd_cluster_peer_breaker_state gauge shows it; while
// the peer is dead, summaries degrade and actd_cluster_scatter_total
// counts partial outcomes; after the peer heals the breaker closes again
// and full scatters resume.
func TestClusterPeerBreakerMetrics(t *testing.T) {
	srvs, fronts, urls := newTestCluster(t, 2, Config{Workers: 2}, ClusterConfig{
		BreakerThreshold: 2,
		BreakerOpenFor:   80 * time.Millisecond,
	})
	_ = srvs

	lines := clusterFleetLines(t, 40)
	resp, err := http.Post(urls[0]+"/v1/fleet/devices", "application/x-ndjson", bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}

	peerGauge := fmt.Sprintf("actd_cluster_peer_breaker_state{peer=%q}", urls[1])
	if m := metricsBody(t, urls[0]); !strings.Contains(m, peerGauge+" 0") {
		t.Fatalf("healthy cluster: %s not 0 in metrics", peerGauge)
	}

	// Kill the peer and summarize until the breaker crosses its threshold.
	fronts[1].setDown(true)
	sawPartial := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(urls[0] + "/v1/fleet/summary")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusPartialContent {
			sawPartial = true
		}
		if strings.Contains(metricsBody(t, urls[0]), peerGauge+" 1") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawPartial {
		t.Error("no summary degraded to 206 while the peer was dead")
	}
	m := metricsBody(t, urls[0])
	if !strings.Contains(m, peerGauge+" 1") {
		t.Fatalf("breaker never opened: %s not 1 in metrics", peerGauge)
	}
	if !strings.Contains(m, `actd_cluster_scatter_total{outcome="partial"}`) {
		t.Error("actd_cluster_scatter_total did not count partial outcomes")
	}

	// Heal. The next probes after the open window close the breaker and
	// the gauge returns to 0 with full scatters resuming.
	fronts[1].setDown(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(urls[0] + "/v1/fleet/summary")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK &&
			strings.Contains(metricsBody(t, urls[0]), peerGauge+" 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker did not close after the peer healed (last status %d)", resp.StatusCode)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if !strings.Contains(metricsBody(t, urls[0]), `actd_cluster_scatter_total{outcome="full"}`) {
		t.Error("actd_cluster_scatter_total did not count full outcomes")
	}
}
