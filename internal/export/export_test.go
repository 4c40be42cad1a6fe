package export

import (
	"bytes"
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"act/internal/fleet"
	"act/internal/prom"
	"act/internal/scenario"
	"act/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

var testEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// seededFleet is the exporter suite's fixture: 12 devices over 3 regions,
// 4 BoM classes, varying lifetimes — small enough to eyeball the golden,
// rich enough to exercise every group dimension.
func seededFleet(t *testing.T) *fleet.Registry {
	t.Helper()
	reg := fleet.New(fleet.Config{Shards: 4})
	regions := []string{"united-states", "europe", "india"}
	for i := 0; i < 12; i++ {
		spec := &scenario.Spec{
			Name:  fmt.Sprintf("bom-%d", i%4),
			Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(10 + i%4), Node: "7nm"}},
			DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
			Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
		}
		dev := fleet.Device{
			ID:          fmt.Sprintf("dev-%02d", i),
			Region:      regions[i%3],
			Deployed:    testEpoch,
			Retired:     testEpoch.Add(units.Years(1 + float64(i%3))),
			Utilization: 0.5 + 0.1*float64(i%5),
			Spec:        spec,
		}
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

var testTS = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// TestLineProtoGolden pins the full exposition payload for the seeded
// fleet against a committed golden, so a change to series names, label
// order or value formatting shows up as a diff.
func TestLineProtoGolden(t *testing.T) {
	got, err := Render(seededFleet(t), testTS)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "lineproto.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("line protocol differs from golden:\n%s\nwant:\n%s", got, want)
	}
}

// sink is an httptest target that records gunzipped payloads.
type sink struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (s *sink) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Encoding") != "gzip" {
			http.Error(w, "want gzip", http.StatusBadRequest)
			return
		}
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.bodies = append(s.bodies, body)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bodies)
}

// TestPushMatchesRenderOnce is the byte-identity contract between the
// one-shot CLI path and the push pipeline: the final flush tick's pushed
// payload, gunzipped, must equal Render at the same timestamp.
func TestPushMatchesRenderOnce(t *testing.T) {
	reg := seededFleet(t)
	snk := &sink{}
	srv := httptest.NewServer(snk.handler())
	defer srv.Close()

	exp, err := New(Config{
		URLs:     []string{srv.URL},
		Interval: time.Hour, // never fires; the flush tick is the only emission
		Now:      func() time.Time { return testTS },
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	exp.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.FlushAndDrain(ctx); err != nil {
		t.Fatal(err)
	}

	if snk.count() != 1 {
		t.Fatalf("sink received %d payloads, want 1", snk.count())
	}
	want, err := Render(reg, testTS)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snk.bodies[0], want) {
		t.Fatalf("pushed payload differs from Render:\n%s\nwant:\n%s", snk.bodies[0], want)
	}
	if len(want) == 0 || !strings.HasPrefix(string(want), "act_fleet_devices ") {
		t.Fatalf("unexpected payload head: %q", head(want))
	}
}

func head(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// TestScheduledTicksFlow exercises the real scheduler: a short interval
// must produce several deliveries without any manual flush.
func TestScheduledTicksFlow(t *testing.T) {
	snk := &sink{}
	srv := httptest.NewServer(snk.handler())
	defer srv.Close()

	exp, err := New(Config{
		URLs:     []string{srv.URL},
		Interval: 5 * time.Millisecond,
	}, seededFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	exp.Start()
	deadline := time.Now().Add(5 * time.Second)
	for snk.count() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.FlushAndDrain(ctx); err != nil {
		t.Fatal(err)
	}
	if snk.count() < 3 {
		t.Fatalf("sink received %d payloads, want >= 3", snk.count())
	}
}

// failingDoer fails every request to URLs containing its marker and
// delegates the rest to the real transport.
type failingDoer struct {
	marker string
	real   Doer
	fails  atomic.Int64
}

func (d *failingDoer) Do(req *http.Request) (*http.Response, error) {
	if strings.Contains(req.URL.String(), d.marker) {
		d.fails.Add(1)
		return nil, fmt.Errorf("injected transport failure for %s", req.URL)
	}
	return d.real.Do(req)
}

// TestEndpointFailover: with the primary hard-down, payloads must land on
// the secondary, and once the primary's breaker trips the pool must stop
// attempting it at all.
func TestEndpointFailover(t *testing.T) {
	var accepted atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accepted.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	doer := &failingDoer{marker: "primary-down", real: &http.Client{}}
	exp, err := New(Config{
		URLs:             []string{srv.URL + "/primary-down", srv.URL + "/backup"},
		Interval:         time.Hour,
		BreakerThreshold: 2,
		BreakerOpenFor:   time.Hour,
		Client:           doer,
	}, seededFleet(t))
	if err != nil {
		t.Fatal(err)
	}

	// Drive the pool directly: 5 sends, primary failing every time.
	for i := 0; i < 5; i++ {
		if err := exp.pool.send(context.Background(), []byte("x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := accepted.Load(); got != 5 {
		t.Fatalf("backup received %d payloads, want 5", got)
	}
	// The primary's breaker trips after 2 consecutive failures; the other
	// 3 sends must not have attempted it.
	if got := doer.fails.Load(); got != 2 {
		t.Fatalf("primary attempted %d times, want 2 (breaker should gate the rest)", got)
	}
	if exp.HealthyEndpoints() != 1 {
		t.Fatalf("healthy endpoints = %d, want 1", exp.HealthyEndpoints())
	}
}

// TestQueueDropsOldest: a full queue sheds its oldest payload, counted,
// and push never blocks.
func TestQueueDropsOldest(t *testing.T) {
	var dropped []string
	q := newQueue(2, func(p *payload) { dropped = append(dropped, p.buf.String()) })
	for _, name := range []string{"a", "b", "c", "d"} {
		if !q.push(&payload{buf: bytes.NewBufferString(name)}) {
			t.Fatalf("push %s rejected", name)
		}
	}
	if want := []string{"a", "b"}; len(dropped) != 2 || dropped[0] != "a" || dropped[1] != "b" {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	q.close()
	var got []string
	for {
		p, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, p.buf.String())
	}
	if len(got) != 2 || got[0] != "c" || got[1] != "d" {
		t.Fatalf("drained %v, want [c d]", got)
	}
}

// TestBackpressureDrop runs the whole pipeline against a stalled sink with
// a depth-1 queue and asserts emissions shed (counted) rather than pile
// up, and that the stall never blocks the scheduler's registry walks.
func TestBackpressureDrop(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stalled.Add(1)
		<-release
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	m := NewMetrics(prom.NewRegistry())
	exp, err := New(Config{
		URLs:       []string{srv.URL},
		Interval:   2 * time.Millisecond,
		QueueDepth: 1,
		Workers:    1,
		Metrics:    m,
	}, seededFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	exp.Start()
	deadline := time.Now().Add(5 * time.Second)
	for m.drops.Value(dropQueueFull) < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	drops := m.drops.Value(dropQueueFull)
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.FlushAndDrain(ctx); err != nil {
		t.Fatal(err)
	}
	if drops < 3 {
		t.Fatalf("queue-full drops = %d, want >= 3", drops)
	}
	if stalled.Load() == 0 {
		t.Fatal("sink never saw a request")
	}
}

// TestTokenBucketPacing runs take against a virtual clock and checks the
// paced schedule: a 100 B/s bucket delivering 3×100 B spends ~2 virtual
// seconds waiting (the first send rides the initial burst).
func TestTokenBucketPacing(t *testing.T) {
	now := testEpoch
	b := newTokenBucket(100, func() time.Time { return now })
	var slept time.Duration
	b.sleepFn = func(_ context.Context, d time.Duration) error {
		slept += d
		now = now.Add(d)
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := b.take(context.Background(), 100); err != nil {
			t.Fatal(err)
		}
	}
	if slept < 1900*time.Millisecond || slept > 2100*time.Millisecond {
		t.Fatalf("paced wait = %v, want ~2s", slept)
	}
}

// TestSetInterval re-anchors the deadline: after tightening the interval
// the next tick lands one new interval out, stamped with that deadline.
// TestNewValidatesSettings tries every numeric Config setting at zero (the
// default), at -1 and at its documented default value: New accepts the
// first and last, and refuses -1 with an error naming the setting and the
// value. New only builds the pipeline; nothing is started.
func TestNewValidatesSettings(t *testing.T) {
	reg := fleet.New(fleet.Config{Shards: 1})
	settings := []struct {
		name string
		set  func(*Config, int64)
		def  int64
	}{
		{"Interval", func(c *Config, v int64) { c.Interval = time.Duration(v) }, int64(10 * time.Second)},
		{"QueueDepth", func(c *Config, v int64) { c.QueueDepth = int(v) }, 64},
		{"Workers", func(c *Config, v int64) { c.Workers = int(v) }, 2},
		{"RateBytesPerSec", func(c *Config, v int64) { c.RateBytesPerSec = int(v) }, 0},
		{"SendTimeout", func(c *Config, v int64) { c.SendTimeout = time.Duration(v) }, int64(10 * time.Second)},
		{"BreakerThreshold", func(c *Config, v int64) { c.BreakerThreshold = int(v) }, 3},
		{"BreakerOpenFor", func(c *Config, v int64) { c.BreakerOpenFor = time.Duration(v) }, int64(15 * time.Second)},
	}
	for _, s := range settings {
		for _, v := range []int64{0, -1, s.def} {
			cfg := Config{URLs: []string{"http://collector.invalid"}}
			s.set(&cfg, v)
			_, err := New(cfg, reg)
			if v >= 0 {
				if err != nil {
					t.Errorf("%s=%d: New rejected a valid setting: %v", s.name, v, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s=%d: New accepted a negative setting", s.name, v)
			} else if msg := err.Error(); !strings.Contains(msg, s.name) || !strings.Contains(msg, "-1") {
				t.Errorf("%s=%d: error %q does not name the setting and its value", s.name, v, msg)
			}
		}
	}
}

func TestSetInterval(t *testing.T) {
	start := testEpoch
	d := newDeadline(time.Hour, start)
	_, fired, wait := d.due(start.Add(time.Minute))
	if fired || wait != 59*time.Minute {
		t.Fatalf("due = fired %v, wait %v; want not fired, 59m", fired, wait)
	}
	d.setInterval(time.Second, start.Add(time.Minute))
	if got := d.period(); got != time.Second {
		t.Fatalf("period = %v after setInterval, want 1s", got)
	}
	at, fired, _ := d.due(start.Add(time.Minute + 2*time.Second))
	if !fired {
		t.Fatal("after setInterval: no tick fired, want 1")
	}
	if want := start.Add(time.Minute + time.Second); !at.Equal(want) {
		t.Fatalf("tick stamped %v, want %v (one new interval after the change)", at, want)
	}
}

// TestSchedulerDriftFree: a late check advances the deadline in whole
// intervals from the original grid, never from the observation time.
func TestSchedulerDriftFree(t *testing.T) {
	d := newDeadline(10*time.Second, testEpoch)
	// First tick due at +10s; we show up late at +37s.
	at, fired, wait := d.due(testEpoch.Add(37 * time.Second))
	if !fired {
		t.Fatal("no tick fired, want 1")
	}
	if !at.Equal(testEpoch.Add(10 * time.Second)) {
		t.Fatalf("tick stamped %v, want the original +10s deadline", at)
	}
	// Next deadline must sit on the grid at +40s (3s away), not +47s.
	if wait != 3*time.Second {
		t.Fatalf("wait = %v, want 3s (grid-aligned)", wait)
	}
	// The skipped +20s and +30s deadlines are not replayed.
	if _, fired, _ := d.due(testEpoch.Add(38 * time.Second)); fired {
		t.Fatal("a missed interval was replayed")
	}
}
