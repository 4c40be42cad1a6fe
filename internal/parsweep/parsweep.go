// Package parsweep provides the bounded worker pool behind the library's
// parallel sweeps. ACT-style studies — MAC-array sweeps, SoC catalog
// rankings, Monte Carlo uncertainty propagation, the full experiment
// harness — are embarrassingly parallel: thousands of independent,
// pure model evaluations. This package fans such work out across a fixed
// number of goroutines while keeping the results indistinguishable from a
// sequential run:
//
//   - Output ordering is deterministic: result i always corresponds to
//     input i, regardless of which worker evaluated it or when.
//   - The first error cancels the remaining work via context; workers stop
//     picking up new items once any item has failed.
//   - A panic in a worker is captured and re-raised on the calling
//     goroutine, so a crashing model function behaves like it would in a
//     plain loop rather than killing the process from a nameless goroutine.
//   - The worker count defaults to GOMAXPROCS and is overridable, which
//     tests use to pin the pool to one worker and compare against the
//     sequential path.
package parsweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"act/internal/faultinject"
)

// Workers resolves a requested worker count: n when positive, otherwise
// GOMAXPROCS — the hardware parallelism actually available to the process.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order. workers ≤ 0 selects GOMAXPROCS. fn must be safe
// for concurrent use; a panic in fn propagates to the caller. Map is not
// cancellable; a sweep serving a deadline-bound request should use MapCtx.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	out, _ := MapCtx(context.Background(), workers, items, func(_ context.Context, i int, item T) R {
		return fn(i, item)
	})
	return out
}

// MapCtx is the cancellable Map: fn cannot fail, but a done ctx stops the
// pool from starting new items, and MapCtx then returns ctx.Err() with the
// partial results discarded. This is how a request deadline propagates into
// an otherwise infallible sweep — a 504 stops the remaining work instead of
// letting it run to completion for nobody.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) R) ([]R, error) {
	return MapN(ctx, workers, len(items), func(ctx context.Context, i int) (R, error) {
		return fn(ctx, i, items[i]), nil
	})
}

// MapErrCtx applies fn to every item on a bounded worker pool and returns
// the results in input order. The first failure (lowest item index among
// the errors observed) cancels the context passed to in-flight calls,
// stops the pool from starting new items, and is returned; the partial
// results are discarded. workers ≤ 0 selects GOMAXPROCS.
//
// Cancellation contract: when the caller's ctx ends, workers stop picking
// up new items, in-flight fn calls see their ctx done (fn must honor it
// for the wind-down to be prompt), and MapErrCtx returns ctx.Err() —
// cancellation takes precedence over item errors that the cancellation
// itself induced, so a lapsed request deadline always surfaces as the
// deadline error, not as a masked per-item failure. MapErrCtx returns
// only after every worker has exited: no goroutine outlives the call.
func MapErrCtx[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	return MapN(ctx, workers, len(items), func(ctx context.Context, i int) (R, error) {
		return fn(ctx, i, items[i])
	})
}

// ItemError wraps an item's failure with its index, the way the pool
// reports item errors. Exported for callers that fan out coarser units
// (chunks of items, say) but report failures per item in the same shape.
func ItemError(i int, err error) error {
	return fmt.Errorf("parsweep: item %d: %w", i, err)
}

// MapN is MapErrCtx over the index range [0, n) for work that is naturally
// indexed rather than materialized as a slice (e.g. Monte Carlo sample
// streams).
func MapN[R any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	if n < 0 {
		return nil, fmt.Errorf("parsweep: negative item count %d", n)
	}
	out := make([]R, n)
	if n == 0 {
		return out, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = -1
		firstEr error
		panicV  any
		panicSt []byte
	)
	// fail records the failure of item i. The first failure cancels the
	// pool's ctx, which makes in-flight siblings fail with ctx-derived
	// errors; those are bookkeeping, not causes, so a root-cause (non-ctx)
	// error always displaces them. Within the same class the lowest index
	// wins, so single-failure runs report deterministically.
	fail := func(i int, err error) {
		isCtx := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		mu.Lock()
		hadCtx := errIdx == -1 ||
			errors.Is(firstEr, context.Canceled) || errors.Is(firstEr, context.DeadlineExceeded)
		switch {
		case errIdx == -1,
			hadCtx && !isCtx,
			hadCtx == isCtx && i < errIdx:
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicV == nil {
								panicV, panicSt = r, debug.Stack()
							}
							mu.Unlock()
							cancel()
						}
					}()
					if err := faultinject.Visit(ctx, faultinject.SitePoolWorker); err != nil {
						fail(i, ItemError(i, err))
						return
					}
					v, err := fn(ctx, i)
					if err != nil {
						fail(i, ItemError(i, err))
						return
					}
					out[i] = v
				}()
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(fmt.Sprintf("parsweep: worker panic: %v\n%s", panicV, panicSt))
	}
	// Cancellation of the caller's context outranks item errors: a lapsed
	// deadline makes in-flight fn calls fail with ctx-derived errors, and
	// reporting one of those as "item i failed" would mask the real cause.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
