package resilience

import (
	"context"
	"errors"
	"math"
	"time"

	"act/internal/acterr"
)

// RetryPolicy tunes Retry. The zero policy takes the documented defaults
// and is a sensible transient-fault policy as-is.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the back-off before the first retry (default 10ms);
	// each further retry multiplies it by Multiplier (default 2) up to
	// MaxDelay (default 1s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of each delay randomized away, in [0, 1]
	// (default 0.5): delay d becomes d·(1-Jitter) + d·Jitter·u for a
	// uniform u. The stream of u values is seeded, so a given (Seed,
	// failure sequence) always backs off identically — chaos tests are
	// reproducible.
	Jitter float64
	// Seed seeds the jitter stream (default a fixed package constant).
	Seed uint64
	// Classify reports whether an error is worth retrying. The default is
	// DefaultRetryable: retry transient infrastructure faults only — never
	// validation errors, never context cancellation.
	Classify func(error) bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 0x9e3779b97f4a7c15
	}
	if p.Classify == nil {
		p.Classify = DefaultRetryable
	}
	return p
}

// DefaultRetryable is the default retry classification: transient
// infrastructure faults (acterr.Transient) are retried; validation errors,
// context cancellation, and anything unrecognized are not. Deterministic
// failures must never be retried — the second attempt would fail the same
// way and double the damage under overload.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if acterr.IsInvalid(err) {
		return false
	}
	return acterr.IsTransient(err)
}

// Retry runs fn until it succeeds, fails non-retryably, exhausts
// MaxAttempts, or ctx is done. The back-off between attempts is
// exponential with deterministic, seeded jitter; a done ctx cuts the wait
// short and ctx.Err() is returned. The error returned after exhausted
// attempts is the last attempt's error.
func Retry[T any](ctx context.Context, p RetryPolicy, fn func(ctx context.Context, attempt int) (T, error)) (T, error) {
	p = p.withDefaults()
	rng := splitmix64(p.Seed)
	var (
		v   T
		err error
	)
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return v, cerr
		}
		v, err = fn(ctx, attempt)
		if err == nil || attempt >= p.MaxAttempts || !p.Classify(err) {
			return v, err
		}
		if werr := waitBackoff(ctx, p, attempt, rng); werr != nil {
			return v, werr
		}
	}
}

// waitBackoff sleeps the jittered exponential delay for the given failed
// attempt (1-based), or returns early with ctx.Err().
func waitBackoff(ctx context.Context, p RetryPolicy, attempt int, rng func() uint64) error {
	d := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(attempt-1))
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	u := float64(rng()>>11) / float64(1<<53) // uniform in [0,1)
	d = d*(1-p.Jitter) + d*p.Jitter*u
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// splitmix64 returns a deterministic uint64 stream from seed — the same
// generator the Monte Carlo engine uses for reproducible sampling.
func splitmix64(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
