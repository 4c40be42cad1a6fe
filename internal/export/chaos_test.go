//go:build faultinject

// Chaos smoke for the telemetry pipeline, run by `make verify-chaos`.
// Hooks at export.compress and export.send throw deterministic transient
// faults while the exporter ticks against a live sink. The contract under
// fault: nothing blocks a shard walk or deadlocks the pipeline, every
// failed payload is counted under act_export_drops_total with its reason,
// and once the faults clear delivery resumes without a restart.

package export

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"act/internal/faultinject"
	"act/internal/prom"
)

// flaky returns a hook failing the first n visits, then clean.
func flaky(n int) faultinject.Hook {
	var mu sync.Mutex
	return func(site string) faultinject.Fault {
		mu.Lock()
		defer mu.Unlock()
		if n > 0 {
			n--
			return faultinject.Fault{Err: errors.New("injected: " + site)}
		}
		return faultinject.Fault{}
	}
}

func chaosExporter(t *testing.T, url string, m *Metrics) *Exporter {
	t.Helper()
	exp, err := New(Config{
		URLs:     []string{url},
		Interval: 5 * time.Millisecond,
		Workers:  1,
		Metrics:  m,
		// A high threshold keeps the endpoint's breaker closed through
		// the fault burst: this test is about drop accounting and
		// recovery, the breaker path has its own test.
		BreakerThreshold: 1000,
	}, seededFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestChaosSendFaults(t *testing.T) {
	defer faultinject.Reset()
	var s sink
	srv := httptest.NewServer(s.handler())
	defer srv.Close()

	const faults = 7
	faultinject.Register(faultinject.SiteExportSend, flaky(faults))
	m := NewMetrics(prom.NewRegistry())
	exp := chaosExporter(t, srv.URL, m)
	exp.Start()

	// Every injected fault becomes a counted send_failed drop, and once
	// the hook runs clean, payloads reach the sink again.
	waitFor(t, "injected send faults to drain", func() bool {
		return m.drops.Value(dropSendFailed) >= faults
	})
	before := s.count()
	waitFor(t, "delivery to resume after faults", func() bool {
		return s.count() > before
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.FlushAndDrain(ctx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	if got := faultinject.Fired(faultinject.SiteExportSend); got < faults {
		t.Errorf("fired(%s) = %d, want >= %d", faultinject.SiteExportSend, got, faults)
	}
}

func TestChaosCompressFaults(t *testing.T) {
	defer faultinject.Reset()
	var s sink
	srv := httptest.NewServer(s.handler())
	defer srv.Close()

	const faults = 5
	faultinject.Register(faultinject.SiteExportCompress, flaky(faults))
	m := NewMetrics(prom.NewRegistry())
	exp := chaosExporter(t, srv.URL, m)
	exp.Start()

	waitFor(t, "injected compress faults to drain", func() bool {
		return m.drops.Value(dropCompress) >= faults
	})
	waitFor(t, "delivery to resume after faults", func() bool {
		return s.count() > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.FlushAndDrain(ctx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	// A dropped payload must not leak its buffer into a delivered one:
	// every body the sink did receive parses back to the same first line.
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, body := range s.bodies {
		if !bytes.HasPrefix(body, []byte("act_fleet_devices 12 ")) {
			t.Fatalf("body %d corrupted: %.80s", i, body)
		}
	}
}
