package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"act/internal/vfs"
)

// fleetLine renders one NDJSON device over the shared testSpec shape.
func fleetLine(t *testing.T, id string, area float64, region string) string {
	t.Helper()
	raw, err := json.Marshal(testSpec(area))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"id":%q,"region":%q,"deployed":"2024-01-01","utilization":0.5,"scenario":%s}`,
		id, region, raw)
}

func ingestFleet(t *testing.T, ts string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts+"/v1/fleet/devices", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestFleetAPILifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Ingest three devices, one of them twice (a replace).
	body := strings.Join([]string{
		fleetLine(t, "a", 10, "united-states"),
		fleetLine(t, "b", 20, "europe"),
		fleetLine(t, "c", 30, "india"),
		fleetLine(t, "a", 40, "united-states"),
	}, "\n")
	resp := ingestFleet(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var res struct {
		Upserted int `json:"upserted"`
		Replaced int `json:"replaced"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Upserted != 4 || res.Replaced != 1 {
		t.Fatalf("ingest result = %+v, want 4 upserted / 1 replaced", res)
	}

	// Summary with every optional section.
	get, err := http.Get(ts.URL + "/v1/fleet/summary?top=2&by=region")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var doc struct {
		Devices      int `json:"devices"`
		DistinctBoMs int `json:"distinct_boms"`
		Groups       []struct {
			Key string `json:"key"`
		} `json:"groups"`
		Top []struct {
			ID string `json:"id"`
		} `json:"top"`
	}
	if err := json.NewDecoder(get.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Devices != 3 || doc.DistinctBoMs != 3 {
		t.Fatalf("summary = %+v, want 3 devices / 3 BoMs", doc)
	}
	if len(doc.Groups) != 3 || len(doc.Top) != 2 {
		t.Fatalf("summary sections = %d groups / %d top, want 3/2", len(doc.Groups), len(doc.Top))
	}
	if doc.Top[0].ID != "c" { // india's grid intensity makes operational dominate
		t.Fatalf("top emitter = %q, want c", doc.Top[0].ID)
	}

	// Delete one; a second delete of the same id is 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleet/devices/b", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", del.StatusCode)
	}
	del2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del2.Body.Close()
	if del2.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d, want 404", del2.StatusCode)
	}

	// Recompute answers the fresh summary.
	rec, err := http.Post(ts.URL+"/v1/fleet/recompute", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Body.Close()
	var after struct {
		Devices int `json:"devices"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if rec.StatusCode != http.StatusOK || after.Devices != 2 {
		t.Fatalf("recompute: status %d devices %d, want 200/2", rec.StatusCode, after.Devices)
	}
}

// TestNegativeMaxBatchTakesDefault: a negative Config.MaxBatch is the
// default limit on both routes it caps, not a 413 for any footprint
// request beside an unlimited fleet ingest.
func TestNegativeMaxBatchTakesDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: -1, MaxBodyBytes: 1 << 20})
	if s.cfg.MaxBatch != 10000 {
		t.Fatalf("MaxBatch = %d, want the default 10000", s.cfg.MaxBatch)
	}
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(1)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("footprint: status %d, want 200; body %s", resp.StatusCode, body)
	}
	resp = ingestFleet(t, ts.URL, fleetLine(t, "a", 10, "europe")+"\n"+fleetLine(t, "b", 11, "europe"))
	body, _ = io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d, want 200; body %s", resp.StatusCode, body)
	}
}

func TestFleetAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2, MaxBodyBytes: 1 << 20})

	t.Run("invalid device is 400 with field and index", func(t *testing.T) {
		bad := strings.Replace(fleetLine(t, "x", 10, "united-states"), `"2024-01-01"`, `"soon"`, 1)
		resp := ingestFleet(t, ts.URL, bad)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		e := decodeError(t, body)
		if e.Field != "device[0].deployed" {
			t.Fatalf("field = %q, want device[0].deployed", e.Field)
		}
		if e.Code != codeInvalidArgument {
			t.Fatalf("code = %q, want %q", e.Code, codeInvalidArgument)
		}
	})

	t.Run("unknown region is 400", func(t *testing.T) {
		resp := ingestFleet(t, ts.URL, fleetLine(t, "x", 10, "atlantis"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})

	t.Run("over max batch is 413", func(t *testing.T) {
		body := strings.Join([]string{
			fleetLine(t, "a", 10, "europe"),
			fleetLine(t, "b", 11, "europe"),
			fleetLine(t, "c", 12, "europe"),
		}, "\n")
		resp := ingestFleet(t, ts.URL, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
	})

	t.Run("bad query is 400", func(t *testing.T) {
		for _, q := range []string{"?top=x", "?top=-3", "?by=color"} {
			resp, err := http.Get(ts.URL + "/v1/fleet/summary" + q)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
			}
		}
	})
}

// TestFleetMetricsExposition drives the fleet API and asserts the three
// fleet series render in /metrics with the values the traffic implies.
func TestFleetMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := strings.Join([]string{
		fleetLine(t, "a", 10, "united-states"),
		fleetLine(t, "b", 20, "europe"),
		fleetLine(t, "a", 30, "united-states"),
	}, "\n")
	if resp := ingestFleet(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if resp := ingestFleet(t, ts.URL, fleetLine(t, "x", 10, "atlantis")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ingest status = %d", resp.StatusCode)
	}
	rec, err := http.Post(ts.URL+"/v1/fleet/recompute", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE actd_fleet_devices gauge",
		"actd_fleet_devices 2",
		"# TYPE actd_fleet_ingest_total counter",
		`actd_fleet_ingest_total{code="created"} 2`,
		`actd_fleet_ingest_total{code="replaced"} 1`,
		`actd_fleet_ingest_total{code="invalid"} 1`,
		"# TYPE actd_fleet_recompute_seconds histogram",
		"actd_fleet_recompute_seconds_count 1",
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// fleetSummaryBody fetches the canonical grouped summary bytes.
func fleetSummaryBody(t *testing.T, ts string) []byte {
	t.Helper()
	resp, err := http.Get(ts + "/v1/fleet/summary?top=3&by=region")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFleetPersistenceAcrossRestart is the durability acceptance path: a
// server with a snapshot and a segmented write-ahead log is killed
// (state checkpointed), a second server boots from the same paths, and
// its summary is byte-identical — including mutations that only ever hit
// the log.
func TestFleetPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	d := FleetDurability{
		SnapshotPath: filepath.Join(dir, "fleet.snap"),
		WALDir:       filepath.Join(dir, "wal"),
	}
	ctx := context.Background()

	s1, ts1 := newTestServer(t, Config{})
	if err := s1.OpenFleet(ctx, d); err != nil {
		t.Fatal(err)
	}
	if resp := ingestFleet(t, ts1.URL, strings.Join([]string{
		fleetLine(t, "a", 10, "united-states"),
		fleetLine(t, "b", 20, "europe"),
	}, "\n")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if err := s1.CheckpointFleet(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands only in the write-ahead log.
	if resp := ingestFleet(t, ts1.URL, fleetLine(t, "c", 30, "india")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	wantBody := fleetSummaryBody(t, ts1.URL)
	if err := s1.CloseFleet(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server boots from the same paths.
	s2, ts2 := newTestServer(t, Config{})
	if err := s2.OpenFleet(ctx, d); err != nil {
		t.Fatal(err)
	}
	if gotBody := fleetSummaryBody(t, ts2.URL); !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("summary after restart differs:\n%s\nwant:\n%s", gotBody, wantBody)
	}
	if err := s2.CloseFleet(); err != nil {
		t.Fatal(err)
	}

	// A checkpoint of the restored state folds device c (log-only so far)
	// into a fresh snapshot and drops the covered segments.
	s3, _ := newTestServer(t, Config{})
	if err := s3.OpenFleet(ctx, d); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(d.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.CheckpointFleet(); err != nil {
		t.Fatal(err)
	}
	if n := s3.FleetStore().WALSegments(); n != 1 {
		t.Fatalf("WAL has %d segments after checkpoint, want 1 fresh one", n)
	}
	after, err := os.ReadFile(d.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("checkpoint did not fold the write-ahead log into the snapshot")
	}
	if err := s3.CloseFleet(); err != nil {
		t.Fatal(err)
	}

	// Final boot from the checkpointed snapshot alone reproduces the
	// summary bytes again.
	s4, ts4 := newTestServer(t, Config{})
	if err := s4.OpenFleet(ctx, d); err != nil {
		t.Fatal(err)
	}
	defer s4.CloseFleet()
	if finalBody := fleetSummaryBody(t, ts4.URL); !bytes.Equal(finalBody, wantBody) {
		t.Fatalf("summary after checkpointed restart differs:\n%s\nwant:\n%s", finalBody, wantBody)
	}
}

// TestFleetDegradedEndToEnd is the acceptance path for degrade-and-heal:
// the disk fills mid-traffic, the next write answers 503 with the
// `degraded` envelope code, /readyz flips to degraded while /metrics
// keeps serving (the exporter must keep ticking), and once space returns
// a probe restores writability with no acknowledged data lost.
func TestFleetDegradedEndToEnd(t *testing.T) {
	m := vfs.NewMemFS()
	s, ts := newTestServer(t, Config{})
	d := FleetDurability{SnapshotPath: "data/fleet.snap", WALDir: "data/wal", FS: m}
	if err := s.OpenFleet(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	defer s.CloseFleet()

	if resp := ingestFleet(t, ts.URL, fleetLine(t, "a", 10, "united-states")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	wantBody := fleetSummaryBody(t, ts.URL)

	// The disk fills. Every write must be rejected with the degraded
	// code — not half-applied, not a 500 — however many come in a row:
	// the store's own answer is the honest one, so a run of them must not
	// turn into a route-wide "unavailable".
	m.SetDiskCap(m.Used())
	for i := 0; i < 6; i++ {
		resp := ingestFleet(t, ts.URL, fleetLine(t, "b", 20, "europe"))
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("write %d on full disk: status = %d, body %s", i+1, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Code != codeDegraded {
			t.Fatalf("write %d on full disk: code = %q, want %q", i+1, e.Code, codeDegraded)
		}
	}

	// Readiness reports the degradation; liveness and metrics keep
	// serving so operators can see it.
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var readyBody struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(ready.Body).Decode(&readyBody); err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable || readyBody.Status != "degraded" || readyBody.Reason == "" {
		t.Fatalf("readyz while degraded: status %d, body %+v", ready.StatusCode, readyBody)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if metrics.StatusCode != http.StatusOK || !strings.Contains(string(exposition), "actd_fleet_degraded 1") {
		t.Fatalf("metrics while degraded: status %d, missing actd_fleet_degraded 1", metrics.StatusCode)
	}
	// Reads still answer — degraded means read-only, not down.
	if got := fleetSummaryBody(t, ts.URL); !bytes.Equal(got, wantBody) {
		t.Fatal("summary changed while degraded: a rejected write half-applied")
	}

	// Space returns; the probe (the compactor's job in production) heals
	// the store and the very next write flows, with no window to wait out.
	m.SetDiskCap(0)
	if err := s.FleetStore().Probe(); err != nil {
		t.Fatalf("probe after space returned: %v", err)
	}
	if ready, err := http.Get(ts.URL + "/readyz"); err != nil || ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz after heal: %v %d", err, ready.StatusCode)
	} else {
		ready.Body.Close()
	}
	if resp := ingestFleet(t, ts.URL, fleetLine(t, "b", 20, "europe")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after heal: status = %d", resp.StatusCode)
	}

	// Nothing acknowledged was lost across the whole episode: a restart
	// from the same MemFS replays both acknowledged devices.
	want := fleetSummaryBody(t, ts.URL)
	if err := s.CloseFleet(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	s2, ts2 := newTestServer(t, Config{})
	if err := s2.OpenFleet(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	defer s2.CloseFleet()
	if got := fleetSummaryBody(t, ts2.URL); !bytes.Equal(got, want) {
		t.Fatal("state diverged across the degrade/heal/restart episode")
	}
}

// TestFleetSummaryTopBeyondFleet asks for top=MaxInt32 on a three-device
// fleet: the query bounds its buffers by the fleet, not by top, and
// answers 200 with every device in rank order.
func TestFleetSummaryTopBeyondFleet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := strings.Join([]string{
		fleetLine(t, "a", 10, "united-states"),
		fleetLine(t, "b", 20, "europe"),
		fleetLine(t, "c", 30, "india"),
	}, "\n")
	if resp := ingestFleet(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	get, err := http.Get(fmt.Sprintf("%s/v1/fleet/summary?top=%d", ts.URL, math.MaxInt32))
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("summary status = %d, want 200", get.StatusCode)
	}
	var doc struct {
		Top []struct {
			ID     string  `json:"id"`
			TotalG float64 `json:"total_g"`
		} `json:"top"`
	}
	if err := json.NewDecoder(get.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Top) != 3 {
		t.Fatalf("top lists %d devices, want all 3", len(doc.Top))
	}
	for i := 1; i < len(doc.Top); i++ {
		if doc.Top[i-1].TotalG < doc.Top[i].TotalG {
			t.Fatalf("top out of order: %+v", doc.Top)
		}
	}
}
