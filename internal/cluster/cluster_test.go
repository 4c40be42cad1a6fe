// In-process multi-node tests: N serve.Servers behind httptest
// listeners, clustered over loopback, checked against a single-node
// oracle for byte identity. The swapHandler lets a test "kill" a node
// (every request answers 503) and later heal it or swap in a
// replacement server at the same URL — node replacement without
// rebinding ports.

package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/scenario"
	"act/internal/serve"
	"act/internal/vfs"
)

// swapHandler is a mutable HTTP front: swap the inner handler to
// replace a node, mark it down to simulate a dead one.
type swapHandler struct {
	mu   sync.RWMutex
	h    http.Handler
	down bool
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h, down := s.h, s.down
	s.mu.RUnlock()
	if down {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"node down (test)"}}`))
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) setDown(d bool) {
	s.mu.Lock()
	s.down = d
	s.mu.Unlock()
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

type testNode struct {
	srv *serve.Server
	sh  *swapHandler
	ts  *httptest.Server
}

type testCluster struct {
	nodes []*testNode
	urls  []string
}

func quietConfig() serve.Config {
	return serve.Config{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// memberConfig is one member's cluster configuration, with peer breakers
// that trip after three failed calls and probe again after 150 ms.
func memberConfig(self string, peers []string) serve.ClusterConfig {
	return serve.ClusterConfig{
		Self:             self,
		Peers:            peers,
		BreakerOpenFor:   150 * time.Millisecond,
		BreakerThreshold: 3,
	}
}

// newTestCluster builds an n-node loopback cluster. mutate, when
// non-nil, adjusts each node's serve.Config before construction.
func newTestCluster(t *testing.T, n int, mutate func(*serve.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		cfg := quietConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		srv := serve.New(cfg)
		sh := &swapHandler{h: srv.Handler()}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		tc.nodes = append(tc.nodes, &testNode{srv: srv, sh: sh, ts: ts})
		tc.urls = append(tc.urls, ts.URL)
	}
	for _, nd := range tc.nodes {
		self := nd.ts.URL
		if err := nd.srv.EnableCluster(memberConfig(self, tc.urls)); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// newOracle builds the single-node reference actd.
func newOracle(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(quietConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// fleetNDJSON renders n devices over `distinct` BoM shapes, with mixed
// regions, utilizations and retirement windows.
func fleetNDJSON(t *testing.T, n, distinct int) []byte {
	t.Helper()
	regions := []string{"united-states", "europe", "india", "world"}
	specs := make([][]byte, distinct)
	for i := range specs {
		raw, err := scenario.Marshal(&scenario.Spec{
			Name:  fmt.Sprintf("bom-%d", i),
			Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(10 + i), Node: "7nm"}},
			DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
			Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
		})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = raw
	}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		retired := ""
		if i%3 == 0 {
			retired = `,"retired":"2026-07-01"`
		}
		fmt.Fprintf(&b, `{"id":"dev-%05d","region":%q,"deployed":"2024-01-01"%s,"utilization":%g,"scenario":%s}`+"\n",
			i, regions[i%len(regions)], retired, 0.25+float64(i%4)*0.2, specs[i%distinct])
	}
	return b.Bytes()
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

var summaryVariants = []string{"", "?top=5", "?by=region", "?by=node", "?by=class", "?top=3&by=region"}

// variantQuery parses one summaryVariants entry into its fleet query.
func variantQuery(t *testing.T, v string) fleet.Query {
	t.Helper()
	vals, err := url.ParseQuery(strings.TrimPrefix(v, "?"))
	if err != nil {
		t.Fatal(err)
	}
	q := fleet.Query{GroupBy: vals.Get("by")}
	if top := vals.Get("top"); top != "" {
		if q.TopK, err = strconv.Atoi(top); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// TestFoldOwnPartialMatchesQuery folds one registry's own partial and
// compares the bytes with the registry's Query for every summary
// variant. Three shards are emptied first: removals leave float residue
// in a shard's totals, and the partial must carry it, because Query adds
// every shard whether it holds devices or not.
func TestFoldOwnPartialMatchesQuery(t *testing.T) {
	reg := fleet.New(fleet.Config{Shards: 16})
	if _, err := reg.IngestNDJSON(bytes.NewReader(fleetNDJSON(t, 200, 7)), 0); err != nil {
		t.Fatal(err)
	}
	emptied := map[int]bool{}
	for i := 0; len(emptied) < 3; i++ {
		emptied[fleet.ShardIndex(fmt.Sprintf("dev-%05d", i), reg.ShardCount())] = true
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("dev-%05d", i)
		if emptied[fleet.ShardIndex(id, reg.ShardCount())] {
			if _, err := reg.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	residue := 0
	for _, sa := range reg.ShardAggregates("") {
		if emptied[sa.Index] {
			if sa.Devices != 0 {
				t.Fatalf("shard %d still holds %d devices", sa.Index, sa.Devices)
			}
			residue++
		}
	}
	if residue == 0 {
		t.Fatal("no emptied shard kept a float residue; the fixture no longer exercises it")
	}

	const self = "http://127.0.0.1:1"
	c, err := cluster.New(cluster.Config{Self: self, Peers: []string{self}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range summaryVariants {
		q := variantQuery(t, v)
		want, err := reg.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.Fold(q, []cluster.Partial{c.LocalPartial(q.TopK, q.GroupBy)})
		if err != nil {
			t.Fatal(err)
		}
		var gb, wb bytes.Buffer
		if err := report.Encode(&gb, got); err != nil {
			t.Fatal(err)
		}
		if err := report.Encode(&wb, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Errorf("summary%s: fold of own partial diverges from Query\n got: %s\nwant: %s", v, gb.Bytes(), wb.Bytes())
		}
	}
}

// TestClusterSummaryByteIdentity is the heart of the PR: a 3-node
// cluster ingests a scattered fleet and answers every summary variant —
// from every member — with exactly the bytes the single-node oracle
// serves for the same fleet.
func TestClusterSummaryByteIdentity(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	oracle, ots := newOracle(t)

	lines := fleetNDJSON(t, 300, 12)
	if resp, body := post(t, ots.URL+"/v1/fleet/devices", lines); resp.StatusCode != 200 {
		t.Fatalf("oracle ingest: %d %s", resp.StatusCode, body)
	}
	resp, body := post(t, tc.urls[0]+"/v1/fleet/devices", lines)
	if resp.StatusCode != 200 {
		t.Fatalf("cluster ingest: %d %s", resp.StatusCode, body)
	}
	var res struct {
		Upserted int `json:"upserted"`
		Replaced int `json:"replaced"`
	}
	if err := json.Unmarshal(body, &res); err != nil || res.Upserted != 300 || res.Replaced != 0 {
		t.Fatalf("cluster ingest result %s (err %v)", body, err)
	}

	// Placement sanity: the fleet actually scattered, and nothing was
	// double-applied.
	total := 0
	for i, nd := range tc.nodes {
		n := nd.srv.Fleet().Len()
		if n == 0 {
			t.Errorf("node %d holds no devices — placement did not scatter", i)
		}
		total += n
	}
	if total != 300 {
		t.Fatalf("devices across nodes = %d, want 300", total)
	}
	if oracle.Fleet().Len() != 300 {
		t.Fatalf("oracle holds %d devices", oracle.Fleet().Len())
	}

	for _, v := range summaryVariants {
		_, want := get(t, ots.URL+"/v1/fleet/summary"+v)
		for ni, u := range tc.urls {
			resp, got := get(t, u+"/v1/fleet/summary"+v)
			if resp.StatusCode != 200 {
				t.Fatalf("node %d summary%s: %d %s", ni, v, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("node %d summary%s diverges from oracle\n got: %s\nwant: %s", ni, v, got, want)
			}
		}
	}

	// The fold-from-partials path (what `act fleet -peers` runs) must
	// produce the same bytes again.
	doc, missing, err := tc.nodes[1].srv.Cluster().Summary(context.Background(), fleet.Query{TopK: 5, GroupBy: "region"})
	if err != nil || len(missing) != 0 {
		t.Fatalf("direct Summary: %v missing=%v", err, missing)
	}
	_, want := get(t, ots.URL+"/v1/fleet/summary?top=5&by=region")
	var buf bytes.Buffer
	if err := report.Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("folded doc diverges from oracle\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestClusterDeleteRouting: deletes route to the owning member whatever
// node takes the request, 404s are relayed, and a forwarded hop landing
// on a non-owner answers conflict instead of looping.
func TestClusterDeleteRouting(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	lines := fleetNDJSON(t, 60, 4)
	if resp, body := post(t, tc.urls[0]+"/v1/fleet/devices", lines); resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	// Find a device NOT owned by node 0, so the delete must proxy.
	c0 := tc.nodes[0].srv.Cluster()
	remote := ""
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("dev-%05d", i)
		if c0.OwnerOf(id) != c0.Self() {
			remote = id
			break
		}
	}
	if remote == "" {
		t.Fatal("no remotely-owned device found")
	}
	ownerURL := c0.OwnerOf(remote)
	before := 0
	for _, nd := range tc.nodes {
		if nd.ts.URL == ownerURL {
			before = nd.srv.Fleet().Len()
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, tc.urls[0]+"/v1/fleet/devices/"+remote, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), remote) {
		t.Fatalf("proxied delete: %d %s", resp.StatusCode, body)
	}
	for _, nd := range tc.nodes {
		if nd.ts.URL == ownerURL && nd.srv.Fleet().Len() != before-1 {
			t.Errorf("owner count = %d, want %d", nd.srv.Fleet().Len(), before-1)
		}
	}

	// Deleting it again 404s through the same proxy path.
	req, _ = http.NewRequest(http.MethodDelete, tc.urls[0]+"/v1/fleet/devices/"+remote, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 || !strings.Contains(string(body), "not_found") {
		t.Fatalf("second delete: %d %s", resp.StatusCode, body)
	}

	// Hop guard: a forwarded delete for a device this node does not own
	// answers 409 rather than forwarding again.
	req, _ = http.NewRequest(http.MethodDelete, tc.urls[0]+"/v1/fleet/devices/"+remote, nil)
	req.Header.Set(cluster.ForwardedHeader, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 409 || !strings.Contains(string(body), "conflict") {
		t.Fatalf("forwarded non-owner delete: %d %s (want 409 conflict)", resp.StatusCode, body)
	}
}

// TestClusterIngestErrors: scattered ingest keeps the single-node error
// taxonomy — indexed validation failures (remapped to global stream
// positions), malformed JSON, and the batch bound.
func TestClusterIngestErrors(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *serve.Config) { c.MaxBatch = 50 })

	good := fleetNDJSON(t, 10, 2)
	bad := []byte(`{"id":"dev-bad","region":"europe","scenario":{"version":1,"name":"x"}}` + "\n")
	stream := append(append([]byte{}, good...), bad...)
	resp, body := post(t, tc.urls[0]+"/v1/fleet/devices", stream)
	if resp.StatusCode != 400 {
		t.Fatalf("invalid record: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"field":"device[10]`) {
		t.Errorf("error field not remapped to global index: %s", body)
	}
	// The 10 valid records before the failure are applied.
	total := 0
	for _, nd := range tc.nodes {
		total += nd.srv.Fleet().Len()
	}
	if total != 10 {
		t.Errorf("applied device count = %d, want 10", total)
	}

	resp, body = post(t, tc.urls[0]+"/v1/fleet/devices", []byte(`{"id":"x",`))
	if resp.StatusCode != 400 || !strings.Contains(string(body), "device[0]") {
		t.Fatalf("malformed JSON: %d %s", resp.StatusCode, body)
	}

	resp, body = post(t, tc.urls[0]+"/v1/fleet/devices", fleetNDJSON(t, 60, 2))
	if resp.StatusCode != 413 || !strings.Contains(string(body), "too_large") {
		t.Fatalf("over batch bound: %d %s", resp.StatusCode, body)
	}
}

// TestClusterRecompute runs the two-phase recompute and checks the
// response document and every member's epoch.
func TestClusterRecompute(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	_, ots := newOracle(t)

	lines := fleetNDJSON(t, 120, 6)
	post(t, ots.URL+"/v1/fleet/devices", lines)
	post(t, tc.urls[0]+"/v1/fleet/devices", lines)

	_, want := post(t, ots.URL+"/v1/fleet/recompute", nil)
	resp, got := post(t, tc.urls[1]+"/v1/fleet/recompute", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cluster recompute: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recompute summary diverges\n got: %s\nwant: %s", got, want)
	}
	for i, nd := range tc.nodes {
		if e := nd.srv.Cluster().Epoch(); e != 1 {
			t.Errorf("node %d epoch = %d, want 1", i, e)
		}
	}

	// A second round advances the epoch everywhere again.
	if resp, body := post(t, tc.urls[2]+"/v1/fleet/recompute", nil); resp.StatusCode != 200 {
		t.Fatalf("second recompute: %d %s", resp.StatusCode, body)
	}
	for i, nd := range tc.nodes {
		if e := nd.srv.Cluster().Epoch(); e != 2 {
			t.Errorf("node %d epoch = %d, want 2", i, e)
		}
	}

	// Summaries after the recompute still match the oracle byte for byte.
	_, want = get(t, ots.URL+"/v1/fleet/summary?top=4&by=node")
	_, got = get(t, tc.urls[2]+"/v1/fleet/summary?top=4&by=node")
	if !bytes.Equal(got, want) {
		t.Errorf("post-recompute summary diverges\n got: %s\nwant: %s", got, want)
	}
}

// TestClusterPartialQuorum: with a member down, summaries answer 206
// with the partial envelope code and the reachable-node fold; once the
// member heals, full byte-identical summaries resume.
func TestClusterPartialQuorum(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	_, ots := newOracle(t)
	lines := fleetNDJSON(t, 150, 6)
	post(t, ots.URL+"/v1/fleet/devices", lines)
	post(t, tc.urls[0]+"/v1/fleet/devices", lines)
	_, want := get(t, ots.URL+"/v1/fleet/summary")

	deadIdx := 2
	deadDevices := tc.nodes[deadIdx].srv.Fleet().Len()
	tc.nodes[deadIdx].sh.setDown(true)

	resp, body := get(t, tc.urls[0]+"/v1/fleet/summary")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("summary with a dead member: %d %s", resp.StatusCode, body)
	}
	var partial struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
		Summary struct {
			Devices int `json:"devices"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Error.Code != "partial" {
		t.Errorf("envelope code = %q, want partial", partial.Error.Code)
	}
	if !strings.Contains(partial.Error.Message, tc.urls[deadIdx]) {
		t.Errorf("message does not name the dead member: %s", partial.Error.Message)
	}
	if got, wantN := partial.Summary.Devices, 150-deadDevices; got != wantN {
		t.Errorf("partial fold devices = %d, want %d (reachable members only)", got, wantN)
	}

	// Heal. The peer breakers may have opened; full service resumes once
	// they re-probe.
	tc.nodes[deadIdx].sh.setDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, got := get(t, tc.urls[0]+"/v1/fleet/summary")
		if resp.StatusCode == 200 {
			if !bytes.Equal(got, want) {
				t.Fatalf("post-heal summary diverges\n got: %s\nwant: %s", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal: %d %s", resp.StatusCode, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterSeedReplacement replaces a member: a fresh server seeds
// from the outgoing node's snapshot ship (adopting its recompute
// epoch), swaps in at the same URL, and the cluster refolds
// byte-identically.
func TestClusterSeedReplacement(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	_, ots := newOracle(t)
	lines := fleetNDJSON(t, 200, 8)
	post(t, ots.URL+"/v1/fleet/devices", lines)
	post(t, tc.urls[0]+"/v1/fleet/devices", lines)

	// A recompute first, so the replacement must adopt a nonzero epoch.
	post(t, ots.URL+"/v1/fleet/recompute", nil)
	if resp, body := post(t, tc.urls[1]+"/v1/fleet/recompute", nil); resp.StatusCode != 200 {
		t.Fatalf("recompute: %d %s", resp.StatusCode, body)
	}

	old := tc.nodes[2]
	repl := serve.New(quietConfig())
	if err := repl.EnableCluster(memberConfig(tc.urls[2], tc.urls)); err != nil {
		t.Fatal(err)
	}
	if err := repl.Cluster().SeedFrom(context.Background(), tc.urls[2]); err != nil {
		t.Fatal(err)
	}
	if got, want := repl.Fleet().Len(), old.srv.Fleet().Len(); got != want {
		t.Fatalf("replacement holds %d devices, outgoing node %d", got, want)
	}
	if got := repl.Cluster().Epoch(); got != 1 {
		t.Fatalf("replacement epoch = %d, want 1 (adopted from ship)", got)
	}
	old.sh.swap(repl.Handler())

	_, want := get(t, ots.URL+"/v1/fleet/summary?top=5&by=region")
	_, got := get(t, tc.urls[0]+"/v1/fleet/summary?top=5&by=region")
	if !bytes.Equal(got, want) {
		t.Errorf("post-replacement summary diverges\n got: %s\nwant: %s", got, want)
	}
}

// TestRequestIDSpansIngestHop pins the fix this PR ships: the request
// id is minted once per inbound request and FORWARDED on routed
// inter-node hops, so one id spans the coordinator and the owner.
func TestRequestIDSpansIngestHop(t *testing.T) {
	tc := newTestCluster(t, 2, nil)

	// Record the forwarded hop's request id at node 1.
	var mu sync.Mutex
	seen := map[string]string{} // path -> request id
	inner := tc.nodes[1].sh.h
	tc.nodes[1].sh.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(cluster.ForwardedHeader) != "" {
			mu.Lock()
			seen[r.URL.Path] = r.Header.Get("X-Request-Id")
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))

	// A device owned by node 1, ingested via node 0, with a caller-chosen
	// request id.
	c0 := tc.nodes[0].srv.Cluster()
	id := ""
	for i := 0; i < 200; i++ {
		cand := fmt.Sprintf("dev-%05d", i)
		if c0.OwnerOf(cand) == tc.urls[1] {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no node-1-owned id found")
	}
	var line bytes.Buffer
	spec, err := scenario.Marshal(&scenario.Spec{
		Name:  "bom",
		Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: 12, Node: "7nm"}},
		Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&line, `{"id":%q,"region":"europe","deployed":"2024-01-01","scenario":%s}`, id, spec)

	req, _ := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/fleet/devices", &line)
	req.Header.Set("X-Request-Id", "span-test-0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	mu.Lock()
	got := seen["/v1/fleet/devices"]
	mu.Unlock()
	if got != "span-test-0001" {
		t.Errorf("forwarded hop carried request id %q, want span-test-0001", got)
	}
}

// TestClusterRoutes404WithoutCluster: the inter-node surface stays dark
// in single-node mode.
func TestClusterRoutes404WithoutCluster(t *testing.T) {
	srv := serve.New(quietConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := get(t, ts.URL+"/v1/cluster/partial")
	if resp.StatusCode != 404 || !strings.Contains(string(body), "not enabled") {
		t.Fatalf("partial without cluster: %d %s", resp.StatusCode, body)
	}
}

// TestFetchPartialsFold covers the CLI gather: FetchPartials over plain
// HTTP plus a client-side Fold must reproduce the cluster summary bytes,
// and an unreachable member fails the whole gather rather than folding a
// partial fleet silently.
func TestFetchPartialsFold(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	lines := fleetNDJSON(t, 80, 5)
	if resp, body := post(t, tc.urls[0]+"/v1/fleet/devices", lines); resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	partials, err := cluster.FetchPartials(context.Background(), nil, tc.urls, 4, "node")
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) != 2 {
		t.Fatalf("fetched %d partials, want 2", len(partials))
	}
	doc, err := cluster.Fold(fleet.Query{TopK: 4, GroupBy: "node"}, partials)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.Encode(&got, doc); err != nil {
		t.Fatal(err)
	}
	_, want := get(t, tc.urls[1]+"/v1/fleet/summary?top=4&by=node")
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fetched fold diverges from the cluster summary\n got: %s\nwant: %s", got.Bytes(), want)
	}

	if _, err := cluster.FetchPartials(context.Background(), nil, nil, 0, ""); err == nil {
		t.Error("empty peer list fetched")
	}
	if _, err := cluster.FetchPartials(context.Background(), nil, []string{"not a url"}, 0, ""); err == nil {
		t.Error("unparseable peer fetched")
	}
	tc.nodes[1].sh.setDown(true)
	if _, err := cluster.FetchPartials(context.Background(), nil, tc.urls, 0, ""); err == nil {
		t.Error("gather with a dead member succeeded — the CLI fold must be all-or-nothing")
	}
}

// TestClusterRecomputeAbortsOnDeadMember: the prepare wave cannot reach a
// dead member, so the coordinator aborts — no member's epoch moves — and
// after the member heals the same recompute commits everywhere.
func TestClusterRecomputeAbortsOnDeadMember(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	lines := fleetNDJSON(t, 50, 4)
	if resp, body := post(t, tc.urls[0]+"/v1/fleet/devices", lines); resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	tc.nodes[1].sh.setDown(true)
	resp, body := post(t, tc.urls[0]+"/v1/fleet/recompute", nil)
	if resp.StatusCode == 200 {
		t.Fatalf("recompute with a dead member answered 200: %s", body)
	}
	for i, nd := range tc.nodes {
		if e := nd.srv.Cluster().Epoch(); e != 0 {
			t.Errorf("node %d epoch = %d after an aborted recompute, want 0", i, e)
		}
	}

	// Heal; the peer breaker may be open, so retry within its window.
	tc.nodes[1].sh.setDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = post(t, tc.urls[0]+"/v1/fleet/recompute", nil)
		if resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recompute did not recover: %d %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, nd := range tc.nodes {
		if e := nd.srv.Cluster().Epoch(); e != 1 {
			t.Errorf("node %d epoch = %d after the healed recompute, want 1", i, e)
		}
	}
}

// TestSeedFromErrors: seeding refuses bad bases, dead sources, and
// non-cluster servers, without touching the local registry.
func TestSeedFromErrors(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	c := tc.nodes[0].srv.Cluster()
	ctx := context.Background()

	if err := c.SeedFrom(ctx, "not a url"); err == nil {
		t.Error("bad base URL accepted")
	}
	if err := c.SeedFrom(ctx, "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable source accepted")
	}
	plain := serve.New(quietConfig())
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	if err := c.SeedFrom(ctx, ts.URL); err == nil {
		t.Error("seeding from a non-cluster server succeeded")
	}
}

// TestClusterIngestErrorsMatchSingleNode sends the same stream, with one
// bad record, to a 3-node cluster and to a single node, and requires the
// same status, code, field and message (request_id aside). Every member
// coordinates in turn, and a bad record that names a device id is owned
// by each member in turn, so each failure is met on the coordinator's
// own registry and behind a forwarded hop.
func TestClusterIngestErrorsMatchSingleNode(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	_, ots := newOracle(t)
	c0 := tc.nodes[0].srv.Cluster()

	spec := func(version int, node string) string {
		return fmt.Sprintf(`{"version":%d,"name":"bom","logic":[{"name":"soc","area_mm2":12,"node":%q}],"usage":{"power_w":2,"app_hours":876.6}}`, version, node)
	}
	record := func(id, region, deployed, scen string) string {
		return fmt.Sprintf(`{"id":%q,"region":%q,"deployed":%q,"scenario":%s}`, id, region, deployed, scen)
	}
	cases := []struct {
		name string
		bad  func(id string) string
	}{
		{"missing id", func(string) string {
			return `{"region":"europe","deployed":"2024-01-01","scenario":` + spec(1, "7nm") + `}`
		}},
		{"malformed JSON", func(id string) string { return fmt.Sprintf(`{"id":%q "region":"europe"}`, id) }},
		{"bad date", func(id string) string { return record(id, "europe", "2024-13-45", spec(1, "7nm")) }},
		{"scenario version 2", func(id string) string { return record(id, "europe", "2024-01-01", spec(2, "7nm")) }},
		{"unknown node", func(id string) string { return record(id, "europe", "2024-01-01", spec(1, "9000nm")) }},
		{"unknown region", func(id string) string { return record(id, "mars", "2024-01-01", spec(1, "7nm")) }},
	}
	type envelope struct {
		Error struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"error"`
	}
	answer := func(url string, stream []byte) (int, envelope) {
		resp, body := post(t, url+"/v1/fleet/devices", stream)
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("ingest answered %d with no envelope: %s", resp.StatusCode, body)
		}
		return resp.StatusCode, env
	}

	for _, tcase := range cases {
		for owner, ownerURL := range tc.urls {
			id := ""
			for i := 0; id == ""; i++ {
				if cand := fmt.Sprintf("bad-%d", i); c0.OwnerOf(cand) == ownerURL {
					id = cand
				}
			}
			var stream bytes.Buffer
			for i := 0; i < 12; i++ {
				if i == 7 {
					stream.WriteString(tcase.bad(id) + "\n")
				}
				stream.WriteString(record(fmt.Sprintf("dev-%05d", i), "europe", "2024-01-01", spec(1, "7nm")) + "\n")
			}
			wantStatus, want := answer(ots.URL, stream.Bytes())
			if wantStatus != http.StatusBadRequest || want.Error.Field == "" {
				t.Fatalf("%s: single node answered %d %+v, want a 400 naming the record", tcase.name, wantStatus, want)
			}
			for coord, u := range tc.urls {
				status, got := answer(u, stream.Bytes())
				if status != wantStatus || got != want {
					t.Errorf("%s, owner %d, coordinator %d: cluster answered %d %+v\nsingle node answered %d %+v",
						tcase.name, owner, coord, status, got, wantStatus, want)
				}
			}
		}
	}
}

// TestClusterRecomputeErrorsInMemberOrder: a prepare wave that two
// downed members refuse joins their errors in member order, every time.
func TestClusterRecomputeErrorsInMemberOrder(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.nodes[1].sh.setDown(true)
	tc.nodes[2].sh.setDown(true)
	first, second := tc.urls[1], tc.urls[2]
	if second < first {
		first, second = second, first
	}
	for run := 0; run < 10; run++ {
		err := tc.nodes[0].srv.Cluster().Recompute(context.Background())
		if err == nil {
			t.Fatal("recompute with two downed members succeeded")
		}
		msg := err.Error()
		i, j := strings.Index(msg, first), strings.Index(msg, second)
		if i < 0 || j < 0 || i > j {
			t.Fatalf("run %d: prepare error does not name %s before %s: %s", run, first, second, msg)
		}
	}
}

// lockedBuffer is a log sink a server writes while a test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestClusterDeleteRelaysOwnerEnvelope: a delete the owner refuses
// answers the owner's envelope byte for byte, and the coordinator's
// request log line names its code like any error it writes.
func TestClusterDeleteRelaysOwnerEnvelope(t *testing.T) {
	logs := &lockedBuffer{}
	n := 0
	tc := newTestCluster(t, 2, func(c *serve.Config) {
		if n == 0 {
			c.Logger = slog.New(slog.NewTextHandler(logs, nil))
		}
		n++
	})
	c0 := tc.nodes[0].srv.Cluster()
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("dev-%05d", i); !c0.IsLocal(cand) {
			id = cand
		}
	}
	del := func(base string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/fleet/devices/"+id, nil)
		req.Header.Set("X-Request-Id", "relay-test-0001")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	wantStatus, want := del(c0.OwnerOf(id))
	status, got := del(tc.urls[0])
	if wantStatus != http.StatusNotFound || status != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("relayed delete answered %d %s\nowner answered %d %s", status, got, wantStatus, want)
	}

	// The request line is logged after the answer is written.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), "error_code=not_found") {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator logged no error_code=not_found:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterIngestRelaysOwnerDegraded: an owner whose disk is full
// answers a write 503 with the `degraded` envelope. That is a deliberate
// answer, not a transient fault: the coordinator relays it byte for byte
// instead of retrying it until a breaker opens and it answers
// `unavailable`.
func TestClusterIngestRelaysOwnerDegraded(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	owner := tc.nodes[1].srv
	disk := vfs.NewMemFS()
	d := serve.FleetDurability{SnapshotPath: "data/fleet.snap", WALDir: "data/wal", FS: disk}
	if err := owner.OpenFleet(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = owner.CloseFleet() })
	disk.SetDiskCap(disk.Used())

	c0 := tc.nodes[0].srv.Cluster()
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("dev-%05d", i); c0.OwnerOf(cand) == tc.urls[1] {
			id = cand
		}
	}
	line := bytes.Replace(fleetNDJSON(t, 1, 1), []byte(`"dev-00000"`), []byte(strconv.Quote(id)), 1)
	ingest := func(base string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/fleet/devices", bytes.NewReader(line))
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set("X-Request-Id", "degraded-relay-0001")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	wantStatus, want := ingest(tc.urls[1])
	var env struct{ Error struct{ Code string } }
	if err := json.Unmarshal(want, &env); err != nil || wantStatus != http.StatusServiceUnavailable || env.Error.Code != "degraded" {
		t.Fatalf("owner answered %d %s, want 503 degraded", wantStatus, want)
	}
	status, got := ingest(tc.urls[0])
	if status != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("coordinator answered %d %s\nowner answered %d %s", status, got, wantStatus, want)
	}
}
