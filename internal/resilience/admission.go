// Package resilience is the fault-handling layer of the actd serving
// stack: an admission controller that sheds load before work is accepted,
// a retry helper with deterministic backoff and error-class awareness, and
// a circuit breaker. The pieces are plain, dependency-free concurrency
// primitives so the model packages stay pure. actd sheds with admission
// (429). Retries and breakers guard only calls whose faults are real and
// can pass: the cluster peer client uses both, the telemetry exporter's
// endpoint pool a breaker per endpoint. The deterministic model
// evaluation is never retried or broken.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Shed reasons, the label values of actd_shed_total{reason}.
const (
	// ShedQueueFull: the wait queue was already at capacity.
	ShedQueueFull = "queue_full"
	// ShedDeadline: the request's deadline expired (or was about to) before
	// a slot freed up — its work was never accepted.
	ShedDeadline = "deadline"
)

// ShedError reports that a request was turned away before any work was
// accepted. RetryAfter is the server's advice for when to try again —
// actd renders it as a Retry-After header on a 429.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("request shed (%s): retry after %s", e.Reason, e.RetryAfter)
}

// IsShed reports whether err carries a ShedError and returns it.
func IsShed(err error) (*ShedError, bool) {
	var s *ShedError
	ok := errors.As(err, &s)
	return s, ok
}

// AdmissionConfig tunes an Admission controller. Zero fields take the
// documented defaults.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently admitted requests (default 256).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot beyond MaxInFlight
	// (default 2×MaxInFlight). Beyond that, Acquire sheds immediately.
	MaxQueue int
	// MinBudget is the least remaining request deadline worth queueing for:
	// a request whose deadline is nearer than this is shed up front rather
	// than parked in a queue it cannot survive (default 1ms).
	MinBudget time.Duration
	// RetryAfter is the back-off advice attached to shed errors
	// (default 1s).
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MinBudget == 0 {
		c.MinBudget = time.Millisecond
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Admission is a bounded-concurrency admission controller with a
// deadline-aware wait queue. Up to MaxInFlight requests hold slots; up to
// MaxQueue more wait for one; everything beyond that — and every waiter
// whose deadline lapses first — is shed with a typed ShedError so the
// serving layer can answer 429/Retry-After without having started any
// work. All methods are safe for concurrent use.
type Admission struct {
	cfg     AdmissionConfig
	slots   chan struct{}
	queued  atomic.Int64
	shed    atomic.Int64
	current atomic.Int64
}

// NewAdmission builds an admission controller from cfg.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	return &Admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
}

// Acquire admits the request or sheds it. On success it returns a release
// function that must be called exactly once when the request finishes. On
// shed it returns a *ShedError stating why (queue full, or deadline lapsed
// before a slot freed) and no work may proceed.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), nil
	default:
	}

	// A request that cannot survive the queue is shed up front.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < a.cfg.MinBudget {
		return nil, a.shedErr(ShedDeadline)
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		return nil, a.shedErr(ShedQueueFull)
	}
	defer a.queued.Add(-1)

	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), nil
	case <-ctx.Done():
		// The deadline lapsed while queued: no work was accepted, so this
		// is a shed, not a timeout of accepted work.
		return nil, a.shedErr(ShedDeadline)
	}
}

func (a *Admission) releaseFunc() func() {
	a.current.Add(1)
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			a.current.Add(-1)
			<-a.slots
		}
	}
}

func (a *Admission) shedErr(reason string) *ShedError {
	a.shed.Add(1)
	return &ShedError{Reason: reason, RetryAfter: a.cfg.RetryAfter}
}

// InFlight returns the number of currently admitted requests.
func (a *Admission) InFlight() int64 { return a.current.Load() }

// Queued returns the number of requests currently waiting for a slot.
func (a *Admission) Queued() int64 { return a.queued.Load() }

// ShedTotal returns the number of requests shed since construction.
func (a *Admission) ShedTotal() int64 { return a.shed.Load() }
