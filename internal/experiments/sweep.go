package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Sweep evaluates fn(ctx, i) for every index in [0, n) and returns the
// results in index order regardless of execution order. It is the shared
// grid runner behind the figure sweeps: each grid point must be
// independent, seeding any randomness from its index rather than from
// shared mutable state.
//
// workers <= 1 runs serially on the calling goroutine; larger values run a
// bounded pool of that many goroutines (never more than n). The sweep is
// fail-fast: the first error cancels the context passed to fn, and an index
// claimed after a failure is skipped only when it lies above the lowest
// failing index recorded so far. After all in-flight calls drain, the real
// (non-cancellation) error with the lowest index is returned, and every
// index below it ran — so the reported failure is deterministic even though
// goroutine scheduling is not. (A lower index that starts after the first
// failure still sees the cancelled context.) Cancellation of the parent ctx
// stops the sweep and surfaces ctx's error when no fn call failed on its
// own.
func Sweep[R any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]R, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	if workers > n {
		workers = n
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next, lowFail atomic.Int64
	lowFail.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Indices are claimed in increasing order, so once one lies
				// above the lowest failure every later claim does too.
				i := int(next.Add(1)) - 1
				if i >= n || int64(i) > lowFail.Load() || ctx.Err() != nil {
					return
				}
				r, err := fn(sctx, i)
				if err != nil {
					errs[i] = err
					for {
						cur := lowFail.Load()
						if int64(i) >= cur || lowFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	// Prefer a real failure over the cancellation errors that in-flight
	// calls may report once fail-fast kicks in; among real failures the
	// lowest index wins.
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if fallback == nil {
			fallback = err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fallback != nil {
		return nil, fallback
	}
	return results, nil
}
