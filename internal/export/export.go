// Package export is actd's push telemetry pipeline: a drift-free interval
// deadline emits the fleet's carbon accounting as Prometheus exposition
// lines into pooled buffers, a bounded queue absorbs backend
// slowness by shedding the oldest payload (never by blocking a registry
// walk), and a small worker pool gzips and delivers to an endpoint pool
// with per-endpoint circuit breakers and token-bucket egress pacing.
//
// The pipeline is pull-free on the hot side: one emission tick costs
// O(shards + groups) against the fleet registry's incremental aggregates,
// so a 1M-device fleet exports on a 10s interval without a per-device
// scan. Delivery failure degrades to counted staleness — samples drop
// oldest-first and act_export_drops_total says so — never to memory growth
// or ingest stalls.
package export

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"act/internal/fleet"
	"act/internal/resilience"
)

// Config tunes an Exporter. Zero fields take the documented defaults;
// negative ones are rejected by Validate.
type Config struct {
	// URLs are the delivery targets in priority order (required). The
	// first healthy endpoint gets every payload; later ones are failover.
	URLs []string
	// Interval is the emission period (default 10s).
	Interval time.Duration
	// QueueDepth bounds payloads awaiting delivery (default 64); overflow
	// drops the oldest.
	QueueDepth int
	// Workers is the compressor/sender pool size (default 2).
	Workers int
	// RateBytesPerSec paces compressed egress (default 0: unpaced).
	RateBytesPerSec int
	// SendTimeout bounds one delivery attempt (default 10s).
	SendTimeout time.Duration
	// BreakerThreshold trips an endpoint out of rotation after that many
	// consecutive failures (default 3); BreakerOpenFor is how long it
	// stays gated (default 15s).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// Client is the HTTP seam (default a plain http.Client; tests inject
	// failures without a listener).
	Client Doer
	// Metrics receives self-instrumentation (nil: unobserved).
	Metrics *Metrics
	// Logger receives delivery-failure logs (nil: silent).
	Logger *slog.Logger
	// Now is the clock, overridable in tests (default time.Now).
	Now func() time.Time
}

// Validate reports the first negative setting, naming it and its value;
// New refuses one (a negative Interval would spin the scheduler, negative
// Workers would start no delivery worker). Zero selects the default.
func (c Config) Validate() error {
	for _, s := range []struct {
		name     string
		negative bool
		value    any
	}{
		{"Interval", c.Interval < 0, c.Interval},
		{"QueueDepth", c.QueueDepth < 0, c.QueueDepth},
		{"Workers", c.Workers < 0, c.Workers},
		{"RateBytesPerSec", c.RateBytesPerSec < 0, c.RateBytesPerSec},
		{"SendTimeout", c.SendTimeout < 0, c.SendTimeout},
		{"BreakerThreshold", c.BreakerThreshold < 0, c.BreakerThreshold},
		{"BreakerOpenFor", c.BreakerOpenFor < 0, c.BreakerOpenFor},
	} {
		if s.negative {
			return fmt.Errorf("export: %s %v is negative", s.name, s.value)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 10 * time.Second
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.SendTimeout == 0 {
		c.SendTimeout = 10 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerOpenFor == 0 {
		c.BreakerOpenFor = 15 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Exporter runs the pipeline. Build with New, run with Start, stop with
// FlushAndDrain. All methods are safe for concurrent use.
type Exporter struct {
	cfg     Config
	reg     *fleet.Registry
	next    *deadline
	q       *queue
	pool    *endpointPool
	metrics *Metrics
	log     *slog.Logger
	rateBps atomic.Int64

	ctx     context.Context // cancels in-flight sends on abandoned drain
	cancel  context.CancelFunc
	stopCh  chan struct{}
	started atomic.Bool
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New builds an Exporter over the fleet registry reg.
func New(cfg Config, reg *fleet.Registry) (*Exporter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(cfg.URLs) == 0 {
		return nil, fmt.Errorf("export: no endpoint URLs configured")
	}
	if reg == nil {
		return nil, fmt.Errorf("export: no fleet registry configured")
	}
	e := &Exporter{
		cfg:     cfg,
		reg:     reg,
		next:    newDeadline(cfg.Interval, cfg.Now()),
		metrics: cfg.Metrics,
		log:     cfg.Logger,
		stopCh:  make(chan struct{}),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	e.q = newQueue(cfg.QueueDepth, func(p *payload) {
		e.metrics.drop(dropQueueFull)
		p.release()
	})
	bucket := newTokenBucket(cfg.RateBytesPerSec, cfg.Now)
	e.rateBps.Store(int64(cfg.RateBytesPerSec))
	e.pool = newEndpointPool(cfg.URLs, cfg.Client, bucket, cfg.SendTimeout,
		resilience.BreakerConfig{
			FailureThreshold: cfg.BreakerThreshold,
			OpenFor:          cfg.BreakerOpenFor,
			Now:              cfg.Now,
		})
	e.pool.onSend = e.metrics.send
	return e, nil
}

// Start launches the scheduler and worker goroutines. It may be called
// once.
func (e *Exporter) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.wg.Add(1 + e.cfg.Workers)
	go e.schedLoop()
	for i := 0; i < e.cfg.Workers; i++ {
		go e.workLoop()
	}
}

// schedLoop is the single scheduling goroutine: emit when the deadline is
// due, sleep until the next deadline or a wake (interval change).
func (e *Exporter) schedLoop() {
	defer e.wg.Done()
	for {
		at, fired, wait := e.next.due(e.cfg.Now())
		if fired {
			e.emit(at)
		}
		timer := time.NewTimer(wait)
		select {
		case <-e.stopCh:
			timer.Stop()
			return
		case <-e.next.wake:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// emit renders one tick stamped at into a pooled buffer and enqueues the
// payload. An emission failure is counted and logged, never fatal: the
// next tick retries by construction.
func (e *Exporter) emit(at time.Time) {
	e.metrics.tick()
	buf := getBuf()
	if err := appendFleet(buf, e.reg, at); err != nil {
		e.metrics.emitError()
		if e.log != nil {
			e.log.Warn("export emit failed", "error", err)
		}
		putBuf(buf)
		return
	}
	e.metrics.emitted(bytes.Count(buf.Bytes(), []byte("\n")), buf.Len())
	if !e.q.push(&payload{at: at, buf: buf}) {
		e.metrics.drop(dropShutdown)
		putBuf(buf)
	}
}

// workLoop pops payloads, compresses and delivers them until the queue is
// closed and drained.
func (e *Exporter) workLoop() {
	defer e.wg.Done()
	for {
		p, ok := e.q.pop()
		if !ok {
			return
		}
		e.deliver(p)
	}
}

func (e *Exporter) deliver(p *payload) {
	defer p.release()
	gz, err := compress(e.ctx, p.buf.Bytes())
	if err != nil {
		e.metrics.drop(dropCompress)
		if e.log != nil {
			e.log.Warn("export compress failed", "error", err)
		}
		return
	}
	defer putBuf(gz)
	e.metrics.compressed(gz.Len())
	if err := e.pool.send(e.ctx, gz.Bytes()); err != nil {
		e.metrics.drop(dropSendFailed)
		if e.log != nil {
			e.log.Warn("export send failed", "error", err)
		}
		return
	}
	e.metrics.flush(e.cfg.Now().Sub(p.at).Seconds())
}

// FlushAndDrain stops the pipeline gracefully: the scheduler halts, one
// final tick is emitted (so the tail of the series is not lost to shutdown
// timing), and the workers drain the queue. If ctx lapses first,
// in-flight sends are cancelled and whatever remains queued is dropped
// (counted under reason="shutdown").
func (e *Exporter) FlushAndDrain(ctx context.Context) error {
	if !e.stopped.CompareAndSwap(false, true) {
		return nil
	}
	close(e.stopCh)
	if e.started.Load() {
		e.emit(e.cfg.Now()) // the final tick, stamped now
	}
	e.q.close()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.cancel()
		<-done
		for {
			p, ok := e.q.pop()
			if !ok {
				break
			}
			e.metrics.drop(dropShutdown)
			p.release()
		}
		return ctx.Err()
	}
}

// Interval reports the current emission interval.
func (e *Exporter) Interval() time.Duration {
	return e.next.period()
}

// SetInterval retunes the emission period at runtime (the PUT
// /v1/export/config path). The next tick is one new interval away.
func (e *Exporter) SetInterval(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("export: non-positive interval %v", d)
	}
	e.next.setInterval(d, e.cfg.Now())
	return nil
}

// RateBytesPerSec reports the current egress pacing (0 = unpaced).
func (e *Exporter) RateBytesPerSec() int {
	return int(e.rateBps.Load())
}

// SetRateBytesPerSec retunes egress pacing at runtime (0 disables).
func (e *Exporter) SetRateBytesPerSec(n int) error {
	if n < 0 {
		return fmt.Errorf("export: negative rate %d", n)
	}
	e.rateBps.Store(int64(n))
	e.pool.bucket.setRate(n)
	return nil
}

// URLs reports the configured endpoints in priority order.
func (e *Exporter) URLs() []string {
	urls := make([]string, len(e.pool.eps))
	for i, ep := range e.pool.eps {
		urls[i] = ep.url
	}
	return urls
}

// HealthyEndpoints reports endpoints currently in rotation.
func (e *Exporter) HealthyEndpoints() int { return e.pool.healthy() }
