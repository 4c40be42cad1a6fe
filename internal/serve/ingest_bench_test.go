package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"act/internal/conform"
	"act/internal/fleet"
	"act/internal/scenario"
	"act/internal/serve"
	"act/internal/units"
)

// fleetBodies renders a fleet shaped like perfbench's: n devices over
// the BoMs of a generated corpus, each sent as its compact bytes, with
// RFC 3339 dates, a utilization in [0.05, 1] and, on two devices in
// three, an explicit retire date. bulk holds every device; update is a
// replace body of k devices spread over the id range.
func fleetBodies(tb testing.TB, n, boms, k int) (bulk, update []byte) {
	tb.Helper()
	corpus := conform.GenerateCorpus(26, boms)
	compact := make([][]byte, len(corpus))
	for i, s := range corpus {
		raw, err := scenario.Marshal(s)
		if err != nil {
			tb.Fatal(err)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, raw); err != nil {
			tb.Fatal(err)
		}
		compact[i] = c.Bytes()
	}
	regions := []string{"world", "india", "australia", "taiwan", "singapore", "united-states", "europe", "brazil", "iceland"}
	deployed := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(26))
	line := func(buf *bytes.Buffer, id int) {
		b := rng.Intn(len(corpus))
		u := float64(50+rng.Intn(951)) / 1000
		ds := fleet.DeviceSpec{
			ID:          fmt.Sprintf("dev-%06d", id),
			Region:      regions[rng.Intn(len(regions))],
			Deployed:    deployed.Format(time.RFC3339),
			Utilization: &u,
			Scenario:    compact[b],
		}
		if rng.Intn(3) != 0 {
			frac := float64(100+rng.Intn(2401)) / 1000
			ds.Retired = deployed.Add(time.Duration(frac * float64(units.Years(corpus[b].Lifetime())))).Format(time.RFC3339)
		}
		out, err := json.Marshal(ds)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(out)
		buf.WriteByte('\n')
	}
	var bb, ub bytes.Buffer
	for id := 0; id < n; id++ {
		line(&bb, id)
	}
	for j := 0; j < k; j++ {
		line(&ub, j*(n/k))
	}
	return bb.Bytes(), ub.Bytes()
}

// BenchmarkFleetIngestHandler times the replace body perfbench's fleet
// workload sends (100 devices over a 20 000-device, 256-BoM fleet)
// through the whole /v1/fleet/devices handler, per body.
func BenchmarkFleetIngestHandler(b *testing.B) {
	s := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	bulk, body := fleetBodies(b, 20000, 256, 100)
	if _, err := s.Fleet().IngestNDJSON(bytes.NewReader(bulk), 0); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	ingest := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fleet/devices", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("ingest answered %d: %s", w.Code, w.Body.String())
		}
	}
	ingest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest()
	}
}

// BenchmarkFleetTopHandler times GET /v1/fleet/summary?top=10 over the
// same 20 000-device fleet through the whole handler, per query.
func BenchmarkFleetTopHandler(b *testing.B) {
	s := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	bulk, _ := fleetBodies(b, 20000, 256, 100)
	if _, err := s.Fleet().IngestNDJSON(bytes.NewReader(bulk), 0); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/fleet/summary?top=10", nil))
		if w.Code != http.StatusOK {
			b.Fatalf("summary answered %d: %s", w.Code, w.Body.String())
		}
	}
}
