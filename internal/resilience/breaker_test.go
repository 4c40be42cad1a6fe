package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// clock is a manual test clock.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock { return &clock{now: time.Unix(1_700_000_000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(c *clock, transitions *[]string) *Breaker {
	var mu sync.Mutex
	return NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          10 * time.Second,
		Now:              c.Now,
		OnStateChange: func(from, to State) {
			if transitions != nil {
				mu.Lock()
				*transitions = append(*transitions, from.String()+">"+to.String())
				mu.Unlock()
			}
		},
	})
}

func mustAllow(t *testing.T, b *Breaker) func(bool) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow = %v, want admitted", err)
	}
	return done
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	c := newClock()
	var transitions []string
	b := newTestBreaker(c, &transitions)

	// Failures below the threshold keep it closed; a success resets.
	mustAllow(t, b)(false)
	mustAllow(t, b)(false)
	mustAllow(t, b)(true)
	mustAllow(t, b)(false)
	mustAllow(t, b)(false)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed below the threshold", b.State())
	}
	// The third consecutive failure trips it.
	mustAllow(t, b)(false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}

	// After the window, exactly one probe is admitted.
	c.Advance(11 * time.Second)
	done := mustAllow(t, b)
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe admitted while half-open")
	}
	// The probe succeeds: closed again, traffic flows.
	done(true)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	mustAllow(t, b)(true)

	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c, nil)
	for i := 0; i < 3; i++ {
		mustAllow(t, b)(false)
	}
	c.Advance(11 * time.Second)
	done := mustAllow(t, b) // the half-open probe
	done(false)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// The fresh open window starts at the probe failure.
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("reopened breaker admitted a request")
	}
	c.Advance(11 * time.Second)
	mustAllow(t, b)(true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after recovery", b.State())
	}
}

// done must be idempotent: middleware may call it on several return paths.
func TestBreakerDoneIdempotent(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c, nil)
	done := mustAllow(t, b)
	done(false)
	done(false)
	done(false)
	// Only one failure recorded: two more needed to trip.
	mustAllow(t, b)(false)
	if b.State() != Closed {
		t.Fatal("idempotent done double-counted a failure")
	}
	mustAllow(t, b)(false)
	if b.State() != Open {
		t.Fatal("breaker did not trip at the threshold")
	}
}

func TestBreakerConcurrentTraffic(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1 << 30}) // never trips
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				done, err := b.Allow()
				if err != nil {
					t.Errorf("Allow = %v", err)
					return
				}
				done(i%3 != 0)
			}
		}(g)
	}
	wg.Wait()
	if b.State() != Closed {
		t.Errorf("state = %v, want closed", b.State())
	}
}
