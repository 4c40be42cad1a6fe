package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"act/internal/acterr"
)

// fastPolicy keeps test back-offs down in the microseconds.
func fastPolicy() RetryPolicy {
	return RetryPolicy{BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond}
}

func TestRetryTransientUntilSuccess(t *testing.T) {
	attempts := 0
	v, err := Retry(context.Background(), fastPolicy(), func(_ context.Context, attempt int) (int, error) {
		attempts++
		if attempt < 3 {
			return 0, acterr.Transient(errors.New("flaky cache"))
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Retry = (%d, %v), want (42, nil)", v, err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

func TestRetryNeverRetriesValidation(t *testing.T) {
	attempts := 0
	_, err := Retry(context.Background(), fastPolicy(), func(context.Context, int) (int, error) {
		attempts++
		return 0, acterr.Invalid("logic[0].area_mm2", "non-positive")
	})
	if attempts != 1 {
		t.Errorf("a validation error was retried: %d attempts", attempts)
	}
	if !acterr.IsInvalid(err) {
		t.Errorf("Retry mangled the error: %v", err)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	boom := acterr.Transient(errors.New("still down"))
	attempts := 0
	p := fastPolicy()
	p.MaxAttempts = 4
	_, err := Retry(context.Background(), p, func(context.Context, int) (int, error) {
		attempts++
		return 0, boom
	})
	if attempts != 4 {
		t.Errorf("attempts=%d, want 4", attempts)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the last attempt's error", err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	p := RetryPolicy{BaseDelay: time.Hour, MaxAttempts: 10}
	start := time.Now()
	_, err := Retry(ctx, p, func(context.Context, int) (int, error) {
		attempts++
		cancel() // fail and cancel: the back-off wait must end immediately
		return 0, acterr.Transient(errors.New("fault"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancelled back-off did not return promptly")
	}
}

// The jitter stream is seeded: identical policies must produce identical
// back-off sequences, and a different seed must diverge.
func TestRetryDeterministicJitter(t *testing.T) {
	delays := func(seed uint64) []time.Duration {
		var out []time.Duration
		p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, MaxAttempts: 5, Seed: seed}
		last := time.Now()
		_, _ = Retry(context.Background(), p, func(context.Context, int) (int, error) {
			now := time.Now()
			out = append(out, now.Sub(last))
			last = now
			return 0, acterr.Transient(errors.New("fault"))
		})
		return out
	}
	// Compare the computed delays, not wall-clock sleeps: re-derive from
	// the generator directly for exactness.
	stream := func(seed uint64) []uint64 {
		rng := splitmix64(seed)
		return []uint64{rng(), rng(), rng(), rng()}
	}
	if a, b := stream(1), stream(1); a[0] != b[0] || a[3] != b[3] {
		t.Error("splitmix64 is not deterministic per seed")
	}
	if a, b := stream(1), stream(2); a[0] == b[0] {
		t.Error("different seeds produced the same stream")
	}
	// Sanity: the wall-clock path runs and produces MaxAttempts-1 waits.
	if got := delays(3); len(got) != 5 {
		t.Errorf("attempt count = %d, want 5", len(got))
	}
}

func TestDefaultRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{acterr.Invalid("f", "bad"), false},
		{errors.New("mystery"), false},
		{acterr.Transient(errors.New("pool fault")), true},
		{acterr.Prefix("dram[0]", acterr.Transient(errors.New("lookup fault"))), true},
	}
	for _, tc := range cases {
		if got := DefaultRetryable(tc.err); got != tc.want {
			t.Errorf("DefaultRetryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
