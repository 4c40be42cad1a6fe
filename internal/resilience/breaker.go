package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker's position. The numeric values are the ones
// exported on the actd_cluster_peer_breaker_state gauge.
type State int32

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed State = 0
	// Open: requests are rejected outright until OpenFor elapses.
	Open State = 1
	// HalfOpen: a bounded number of probe requests are let through; one
	// success closes the breaker, one failure reopens it.
	HalfOpen State = 2
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// ErrBreakerOpen is returned by Allow while the breaker rejects requests.
// On actd's cluster path it is a peer fault, answered 503.
var ErrBreakerOpen = errors.New("circuit breaker is open")

// BreakerConfig tunes a Breaker. Zero fields take the documented defaults.
type BreakerConfig struct {
	// FailureThreshold is the run of consecutive failures that trips a
	// closed breaker (default 5).
	FailureThreshold int
	// OpenFor is how long a tripped breaker rejects before letting probes
	// through (default 5s).
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrent probe requests while half-open
	// (default 1).
	HalfOpenProbes int
	// OnStateChange, if set, observes every transition (actd keeps the
	// state gauge current with it). Called outside the breaker's lock.
	OnStateChange func(from, to State)
	// Now is the clock, overridable in tests (default time.Now).
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor == 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.HalfOpenProbes == 0 {
		c.HalfOpenProbes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker: FailureThreshold
// failures in a row trip it open, it rejects for OpenFor, then admits up
// to HalfOpenProbes probes — the first success closes it, the first
// failure reopens it. All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probes   int       // in-flight probes while half-open
	changes  []stateChange
}

// NewBreaker builds a closed breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow asks to pass through the breaker. On success it returns a done
// function that must be called exactly once with whether the protected
// work succeeded; on rejection it returns ErrBreakerOpen.
func (b *Breaker) Allow() (done func(success bool), err error) {
	b.mu.Lock()
	now := b.cfg.Now()
	if b.state == Open {
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			b.mu.Unlock()
			return nil, ErrBreakerOpen
		}
		b.transitionLocked(HalfOpen)
		b.probes = 0
	}
	if b.state == HalfOpen {
		if b.probes >= b.cfg.HalfOpenProbes {
			b.mu.Unlock()
			return nil, ErrBreakerOpen
		}
		b.probes++
	}
	b.mu.Unlock()
	b.notify()
	var once sync.Once
	return func(success bool) { once.Do(func() { b.record(success) }) }, nil
}

// record applies the outcome of one admitted request.
func (b *Breaker) record(success bool) {
	b.mu.Lock()
	switch b.state {
	case HalfOpen:
		b.probes--
		if success {
			b.failures = 0
			b.transitionLocked(Closed)
		} else {
			b.openedAt = b.cfg.Now()
			b.transitionLocked(Open)
		}
	case Closed:
		if success {
			b.failures = 0
		} else {
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				b.openedAt = b.cfg.Now()
				b.transitionLocked(Open)
			}
		}
	case Open:
		// A straggler from before the trip; its outcome is stale.
	}
	b.mu.Unlock()
	b.notify()
}

// transitionLocked switches state and queues the change notification.
// Callers hold b.mu; notifications fire from notify() after unlock.
func (b *Breaker) transitionLocked(to State) {
	if b.state == to {
		return
	}
	b.changes = append(b.changes, stateChange{b.state, to})
	b.state = to
}

type stateChange struct{ from, to State }

// notify drains queued state-change callbacks outside the lock.
func (b *Breaker) notify() {
	if b.cfg.OnStateChange == nil {
		return
	}
	b.mu.Lock()
	pending := b.changes
	b.changes = nil
	b.mu.Unlock()
	for _, c := range pending {
		b.cfg.OnStateChange(c.from, c.to)
	}
}

// State returns the breaker's current position, advancing Open to
// HalfOpen if the open window has lapsed (so a quiescent breaker reads
// correctly without traffic).
func (b *Breaker) State() State {
	b.mu.Lock()
	s := b.state
	if s == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.transitionLocked(HalfOpen)
		b.probes = 0
		s = HalfOpen
	}
	b.mu.Unlock()
	b.notify()
	return s
}
