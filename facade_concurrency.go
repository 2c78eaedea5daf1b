package fairnn

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"fairnn/internal/core"
)

// This file is the concurrency surface of the façade. Since the
// single-pass signature engine rework, every sampler's query methods are
// safe for concurrent use (SetSampler.SampleRepeated, which perturbs
// ranks, is the one exception), so callers can simply share one structure
// across goroutines. The helpers below add a convenient fan-out for bulk
// query workloads.

// QuerySampler is the single-sample query interface shared by the fair
// samplers (SetSampler, SetIndependent, VecIndependent, SetExact, ...).
type QuerySampler[P any] interface {
	Sample(q P, st *QueryStats) (id int32, ok bool)
}

// fanOut calls do(i) for each i in [0, n) on min(workers, n) workers
// (workers <= 0 means GOMAXPROCS), which draw indices from one atomic
// counter; one worker runs on the caller's goroutine. Workers stop
// drawing once ctx is done, once do returns an error or once do panics.
// fanOut returns after every worker has drained, with the batch's first
// failure: an error do returned, or the panic recovered into a
// *PanicError carrying the worker's stack. A panic therefore never
// escapes a worker goroutine, and the caller decides whether to re-panic
// it.
//
//fairnn:fanout-safe every worker runs work, whose deferred recover turns a panic into the returned *PanicError
func fanOut(ctx context.Context, n, workers int, do func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next  atomic.Int64
		stop  atomic.Bool
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		stop.Store(true)
	}
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(*PanicError)
				if !ok {
					pe = core.NewPanicError(r)
				}
				fail(pe)
			}
		}()
		for !stop.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := do(i); err != nil {
				fail(err)
				return
			}
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work()
		return first
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return first
}

// BatchResult is the outcome of one query in a batch.
type BatchResult struct {
	// ID is the sampled point id (valid only when OK).
	ID int32
	// OK reports whether a near point was found.
	OK bool
}

// SampleBatch answers all queries against one shared sampler, fanning the
// work out over min(workers, len(queries)) goroutines; workers <= 0 uses
// GOMAXPROCS. Results are positionally aligned with queries. The sampler's
// per-query randomness streams keep the outputs independent regardless of
// how the queries interleave across goroutines. A panic in Sample stops
// the batch and, once every worker has drained, is re-panicked on the
// caller's goroutine as a *PanicError carrying the worker's stack — with
// any worker count, one included.
func SampleBatch[P any](s QuerySampler[P], queries []P, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if err := fanOut(context.Background(), len(queries), workers, func(i int) error {
		id, ok := s.Sample(queries[i], nil)
		out[i] = BatchResult{ID: id, OK: ok}
		return nil
	}); err != nil {
		panic(err)
	}
	return out
}

// ContextSampler is the context-aware single-sample interface (a subset
// of Sampler, satisfied by every structure in the library).
type ContextSampler[P any] interface {
	SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error)
}

// SampleBatchContext is SampleBatch under a context: every worker runs
// SampleContext, so cancellation propagates into the per-query rejection
// loops, and workers stop picking up new queries once ctx is done.
// Results stay positionally aligned with queries; queries that found no
// near point (ErrNoSample) and queries abandoned to an error report
// OK=false. The error is ctx.Err() when the batch was cut short by
// cancellation, else the first failure that aborted the batch: a foreign
// error a custom ContextSampler returned, or a *PanicError when a query
// panicked (no re-panic) — nil only when every query ran to completion.
func SampleBatchContext[P any](ctx context.Context, s ContextSampler[P], queries []P, workers int) ([]BatchResult, error) {
	out := make([]BatchResult, len(queries))
	err := fanOut(ctx, len(queries), workers, func(i int) error {
		id, err := s.SampleContext(ctx, queries[i], nil)
		switch {
		case err == nil:
			out[i] = BatchResult{ID: id, OK: true}
		case errors.Is(err, ErrNoSample), ctx.Err() != nil:
			// Leave the zero BatchResult: the query ran and found
			// nothing, or the batch context is done and ctx.Err()
			// reports it.
		default:
			// A custom ContextSampler failed for its own reason —
			// including a context error of its own (e.g. a per-query
			// timeout) while the batch context is still live: abort the
			// batch and surface the error instead of returning a
			// silently incomplete result set.
			return err
		}
		return nil
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return out, ctxErr
	}
	return out, err
}

// KSampler is the k-sample query interface (with- or without-replacement
// depending on the structure).
type KSampler[P any] interface {
	SampleK(q P, k int, st *QueryStats) []int32
}

// SampleKBatch draws k samples per query against one shared sampler,
// fanned out like SampleBatch. Result i holds the samples for queries[i].
func SampleKBatch[P any](s KSampler[P], queries []P, k, workers int) [][]int32 {
	out, _ := SampleKBatchContext(context.Background(), s, queries, k, workers)
	return out
}

// SampleKBatchContext is SampleKBatch under a context: cancellation
// propagates to the workers, which stop picking up queries once ctx is
// done (already-started SampleK calls run to completion — per-draw
// cancellation needs SampleContext/Samples). Result slots for abandoned
// queries stay nil; the error is ctx.Err() when the batch was cut short.
func SampleKBatchContext[P any](ctx context.Context, s KSampler[P], queries []P, k, workers int) ([][]int32, error) {
	out := make([][]int32, len(queries))
	if err := fanOut(ctx, len(queries), workers, func(i int) error {
		out[i] = s.SampleK(queries[i], k, nil)
		return nil
	}); err != nil {
		panic(err)
	}
	return out, ctx.Err()
}
