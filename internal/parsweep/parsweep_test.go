package parsweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestMapMatchesSequential checks the core determinism contract: for a pure
// function, any worker count produces exactly the sequential result, in
// order.
func TestMapMatchesSequential(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i * 3
	}
	square := func(_ int, v int) int { return v * v }
	want := make([]int, len(items))
	for i, v := range items {
		want[i] = square(i, v)
	}
	for _, workers := range []int{1, 2, 7, 0} {
		got := Map(workers, items, square)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapErrSuccess(t *testing.T) {
	items := []string{"a", "bb", "ccc"}
	got, err := MapErrCtx(context.Background(), 2, items, func(_ context.Context, i int, s string) (int, error) {
		return i + len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMapErrEmptyAndNegative(t *testing.T) {
	got, err := MapErrCtx(context.Background(), 4, nil, func(_ context.Context, i int, s string) (int, error) {
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: got %v, %v", got, err)
	}
	if _, err := MapN(context.Background(), 1, -1, func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n: expected error")
	}
}

// TestMapErrCancellation checks that the first error cancels the remaining
// work: the context handed to in-flight calls is cancelled and no new items
// start once the pool has drained the cancellation.
func TestMapErrCancellation(t *testing.T) {
	const workers = 4
	boom := errors.New("boom")
	items := make([]int, 1000)
	var started sync.Map
	_, err := MapErrCtx(context.Background(), workers, items, func(ctx context.Context, i int, _ int) (int, error) {
		started.Store(i, true)
		if i == 3 {
			return 0, boom
		}
		// Every other item holds its worker until the failure cancels the
		// pool, so no worker is free to start a further item before the
		// cancellation is visible.
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Errorf("item %d: the pool was not cancelled within 10s of item 3 failing", i)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "item 3") {
		t.Errorf("error %q does not name the failing item", err)
	}
	n := 0
	started.Range(func(any, any) bool { n++; return true })
	if n > workers {
		t.Errorf("%d items started, want at most the %d the workers held when item 3 failed", n, workers)
	}
}

// TestMapErrLowestIndexWins pins the deterministic part of error reporting:
// with one worker the scan is sequential, so the lowest failing index is
// always the one reported.
func TestMapErrLowestIndexWins(t *testing.T) {
	items := make([]int, 10)
	_, err := MapErrCtx(context.Background(), 1, items, func(_ context.Context, i int, _ int) (int, error) {
		if i >= 4 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "fail-4") {
		t.Errorf("err = %v, want the first sequential failure fail-4", err)
	}
}

func TestMapErrParentContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapErrCtx(ctx, 2, make([]int, 100), func(ctx context.Context, i int, _ int) (int, error) {
		return i, nil
	})
	if err == nil {
		t.Error("pre-cancelled parent context: expected error")
	}
}

// TestPanicPropagation checks a worker panic resurfaces on the calling
// goroutine with the original value in the message.
func TestPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the worker panic to propagate")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "kaboom-7") {
			t.Errorf("panic message %q lost the original value", msg)
		}
	}()
	Map(3, make([]int, 50), func(i int, _ int) int {
		if i == 7 {
			panic("kaboom-7")
		}
		return i
	})
}

// TestSharedCacheStress drives many goroutine-shared map accesses through
// the pool; under -race this verifies the pool itself introduces no
// unsynchronized sharing and that a sync.Map-backed memo is a safe cache
// shape for sweeps.
func TestSharedCacheStress(t *testing.T) {
	var cache sync.Map
	items := make([]int, 2000)
	for i := range items {
		items[i] = i % 17 // heavy key contention
	}
	got := Map(8, items, func(_ int, k int) int {
		if v, ok := cache.Load(k); ok {
			return v.(int)
		}
		v := k * k
		cache.Store(k, v)
		return v
	})
	for i, k := range items {
		if got[i] != k*k {
			t.Fatalf("cached result[%d] = %d, want %d", i, got[i], k*k)
		}
	}
}

// TestMapCtxMatchesMap pins that the cancellable form of the infallible
// map produces the same results as Map when nothing cancels.
func TestMapCtxMatchesMap(t *testing.T) {
	items := []int{5, 6, 7, 8, 9}
	want := Map(3, items, func(_ int, v int) int { return v * v })
	got, err := MapCtx(context.Background(), 3, items, func(_ context.Context, _ int, v int) int { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestMapCtxCancellation checks a mid-sweep cancellation stops an
// infallible map: the call returns the ctx error and does not start every
// item.
func TestMapCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := MapCtx(ctx, 2, make([]int, 10000), func(ctx context.Context, i int, _ int) int {
		if started.Add(1) == 5 {
			cancel()
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 10000 {
		t.Error("cancellation did not stop the pool from starting every item")
	}
}

// TestMapErrCtxCancellationOutranksItemError pins the cancellation-first
// contract: when the parent ctx dies mid-sweep, the parent's error is
// reported even if in-flight items failed first because of that very
// cancellation — a 504 must surface as a deadline, not a masked item
// failure.
func TestMapErrCtxCancellationOutranksItemError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := MapErrCtx(ctx, 4, make([]int, 1000), func(ctx context.Context, i int, _ int) (int, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		<-ctx.Done()
		return 0, fmt.Errorf("item %d saw %w", i, ctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to outrank item errors", err)
	}
}

// TestMapErrCtxDeadlineReleasesWorkers checks no worker goroutine outlives
// a deadline-cancelled sweep.
func TestMapErrCtxDeadlineReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := MapErrCtx(ctx, 8, make([]int, 100000), func(ctx context.Context, i int, _ int) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after cancelled sweep: before=%d now=%d", before, runtime.NumGoroutine())
}
