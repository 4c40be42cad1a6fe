// The cluster refold: the seventh surface. The same corpus fleet that the
// single-node refold prices is scattered across a 3-node in-process actd
// cluster (consistent-hash placement at shard grain) and every summary
// query must come back byte-identical to the single-node oracle — through
// the HTTP scatter-gather on every coordinator, and through the
// fold-from-partials path `act fleet -peers` drives. The surface also
// exercises the cluster's operational story: a 2PC recompute, a dead
// member degrading summaries to the closed `partial` envelope, and a node
// replacement seeded from the outgoing member's snapshot ship.

package conform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/scenario"
	"act/internal/serve"
)

// clusterMembers is the conformance cluster size.
const clusterMembers = 3

// downableFront lets the refold kill a member (every request answers 503)
// and swap in a replacement server at the same URL.
type downableFront struct {
	mu   sync.RWMutex
	h    http.Handler
	down bool
}

func (f *downableFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	h, down := f.h, f.down
	f.mu.RUnlock()
	if down {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"member down (conform)"}}`))
		return
	}
	h.ServeHTTP(w, r)
}

func (f *downableFront) setDown(d bool)      { f.mu.Lock(); f.down = d; f.mu.Unlock() }
func (f *downableFront) swap(h http.Handler) { f.mu.Lock(); f.h = h; f.mu.Unlock() }

// clusterRefold deploys the corpus fleet onto an in-process cluster and
// demands byte-identity with the single-node oracle across coordinators,
// query shapes, a recompute, a member death and a member replacement.
func (e *Engine) clusterRefold(rep *Report, corpus []*scenario.Spec) {
	fail := func(format string, args ...any) {
		rep.ClusterFailures = append(rep.ClusterFailures, fmt.Sprintf(format, args...))
	}
	if len(corpus) == 0 {
		return
	}
	nd, err := e.fleetLines(corpus)
	if err != nil {
		fail("building NDJSON: %v", err)
		return
	}

	// The oracle: one registry holding the whole fleet.
	oracle := fleet.New(fleet.Config{})
	if res, err := oracle.IngestNDJSON(bytes.NewReader(nd), 1<<20); err != nil || res.Upserted != len(corpus) {
		fail("oracle ingest: %v (upserted %d of %d)", err, res.Upserted, len(corpus))
		return
	}

	// The cluster: clusterMembers servers behind swappable fronts.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srvs := make([]*serve.Server, clusterMembers)
	fronts := make([]*downableFront, clusterMembers)
	urls := make([]string, clusterMembers)
	for i := range srvs {
		srvs[i] = serve.New(serve.Config{
			Logger:       quiet,
			MaxBatch:     1 << 20,
			MaxBodyBytes: 1 << 30,
			Workers:      e.cfg.Workers,
		})
		fronts[i] = &downableFront{h: srvs[i].Handler()}
		ts := httptest.NewServer(fronts[i])
		defer ts.Close()
		urls[i] = ts.URL
	}
	for i, s := range srvs {
		if err := s.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls,
			BreakerThreshold: 3, BreakerOpenFor: 100 * time.Millisecond}); err != nil {
			fail("enabling cluster on member %d: %v", i, err)
			return
		}
	}
	rep.ClusterNodes = clusterMembers

	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Post(urls[0]+"/v1/fleet/devices", "application/x-ndjson", bytes.NewReader(nd))
	if err != nil {
		fail("cluster ingest: %v", err)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("cluster ingest answered %d: %.200s", resp.StatusCode, body)
		return
	}
	var ires struct {
		Upserted int `json:"upserted"`
	}
	if err := json.Unmarshal(body, &ires); err != nil || ires.Upserted != len(corpus) {
		fail("cluster ingest upserted %d of %d (%v)", ires.Upserted, len(corpus), err)
		return
	}
	rep.ClusterDevices = len(corpus)
	scattered := 0
	for i, s := range srvs {
		n := s.Fleet().Len()
		// With the default 64 global shards a corpus of 64+ devices leaves
		// every member owning at least one shard's worth; smaller corpora may
		// legitimately miss a member.
		if n == 0 && len(corpus) >= 64 {
			fail("member %d owns no devices — the ring did not scatter", i)
		}
		scattered += n
	}
	if scattered != len(corpus) {
		fail("members hold %d devices in total, want %d", scattered, len(corpus))
		return
	}

	queries := []struct {
		name   string
		q      fleet.Query
		params string
	}{
		{"plain", fleet.Query{}, ""},
		{"top5", fleet.Query{TopK: 5}, "?top=5"},
		{"by-region", fleet.Query{GroupBy: "region"}, "?by=region"},
		{"by-node", fleet.Query{GroupBy: "node"}, "?by=node"},
		{"top3-by-region", fleet.Query{TopK: 3, GroupBy: "region"}, "?top=3&by=region"},
	}
	checkAll := func(stage string) bool {
		ok := true
		for _, qt := range queries {
			doc, err := oracle.Query(qt.q)
			if err != nil {
				fail("%s/%s: oracle query: %v", stage, qt.name, err)
				return false
			}
			var want bytes.Buffer
			if err := report.Encode(&want, doc); err != nil {
				fail("%s/%s: encode: %v", stage, qt.name, err)
				return false
			}
			for ni, u := range urls {
				resp, err := hc.Get(u + "/v1/fleet/summary" + qt.params)
				if err != nil {
					fail("%s/%s: member %d query: %v", stage, qt.name, ni, err)
					ok = false
					continue
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("%s/%s: member %d answered %d: %.200s", stage, qt.name, ni, resp.StatusCode, got)
					ok = false
					continue
				}
				if !bytes.Equal(want.Bytes(), got) {
					fail("%s/%s: member %d diverges from the oracle:\n  oracle:  %.300s\n  cluster: %.300s",
						stage, qt.name, ni, want.String(), got)
					ok = false
				}
			}
		}
		return ok
	}
	if !checkAll("scatter") {
		return
	}

	// The `act fleet -peers` path: fetch every member's partial over HTTP
	// and fold client-side. Same bytes again.
	partials, err := cluster.FetchPartials(context.Background(), hc, urls, 5, "region")
	if err != nil {
		fail("fetching partials: %v", err)
		return
	}
	foldDoc, err := cluster.Fold(fleet.Query{TopK: 5, GroupBy: "region"}, partials)
	if err != nil {
		fail("client-side fold: %v", err)
		return
	}
	oracleDoc, err := oracle.Query(fleet.Query{TopK: 5, GroupBy: "region"})
	if err != nil {
		fail("oracle query: %v", err)
		return
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := report.Encode(&wantBuf, oracleDoc); err == nil {
		err = report.Encode(&gotBuf, foldDoc)
	}
	if err != nil {
		fail("fold encode: %v", err)
		return
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		fail("client-side fold diverges from the oracle:\n  oracle: %.300s\n  fold:   %.300s",
			wantBuf.String(), gotBuf.String())
	}

	// Two-phase recompute from a non-zero coordinator, then re-verify.
	if err := oracle.Recompute(context.Background()); err != nil {
		fail("oracle recompute: %v", err)
		return
	}
	resp, err = hc.Post(urls[1]+"/v1/fleet/recompute", "application/json", nil)
	if err != nil {
		fail("cluster recompute: %v", err)
		return
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("cluster recompute answered %d: %.200s", resp.StatusCode, body)
		return
	}
	if !checkAll("recompute") {
		return
	}

	// A dead member degrades the scatter to the closed partial envelope —
	// 206, code "partial", and the reachable-member fold.
	deadDevices := srvs[2].Fleet().Len()
	fronts[2].setDown(true)
	resp, err = hc.Get(urls[0] + "/v1/fleet/summary")
	if err != nil {
		fail("summary with a dead member: %v", err)
		return
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		fail("summary with a dead member answered %d, want 206: %.200s", resp.StatusCode, body)
	} else {
		var part struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
			Summary struct {
				Devices int `json:"devices"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(body, &part); err != nil {
			fail("partial envelope does not decode: %v: %.200s", err, body)
		} else {
			if part.Error.Code != "partial" {
				fail("partial envelope code %q, want \"partial\"", part.Error.Code)
			}
			if want := len(corpus) - deadDevices; part.Summary.Devices != want {
				fail("partial fold covers %d devices, want %d (reachable members only)", part.Summary.Devices, want)
			}
		}
	}

	// Replace the dead member: a fresh server seeds from its snapshot ship
	// (the front must briefly serve again for the transfer), adopts the
	// recompute epoch, and takes over the URL.
	fronts[2].setDown(false)
	repl := serve.New(serve.Config{
		Logger:       quiet,
		MaxBatch:     1 << 20,
		MaxBodyBytes: 1 << 30,
		Workers:      e.cfg.Workers,
	})
	if err := repl.EnableCluster(serve.ClusterConfig{Self: urls[2], Peers: urls,
		BreakerThreshold: 3, BreakerOpenFor: 100 * time.Millisecond}); err != nil {
		fail("enabling cluster on the replacement: %v", err)
		return
	}
	if err := repl.Cluster().SeedFrom(context.Background(), urls[2]); err != nil {
		fail("seeding the replacement: %v", err)
		return
	}
	if got, want := repl.Fleet().Len(), deadDevices; got != want {
		fail("replacement holds %d devices, the outgoing member held %d", got, want)
		return
	}
	if got, want := repl.Cluster().Epoch(), srvs[0].Cluster().Epoch(); got != want {
		fail("replacement adopted epoch %d, cluster is at %d", got, want)
	}
	fronts[2].swap(repl.Handler())

	// The coordinators' breakers for the dead window may still be open;
	// byte-identity must return once they re-probe.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(urls[0] + "/v1/fleet/summary")
		if err != nil {
			fail("post-replacement summary: %v", err)
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			_ = b
			break
		}
		if time.Now().After(deadline) {
			fail("cluster did not heal after the replacement: %d %.200s", resp.StatusCode, b)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkAll("replacement")
}
