package shard

import (
	"context"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/rng"
)

// Resilience is the per-shard-call fault-tolerance policy of a sharded
// sampler. The zero value disables everything: an in-process sampler
// with the zero policy and no fault injector composes no resilience
// layer, so per-shard calls are direct, unlimited, and un-retried —
// preserving the zero-allocation and bit-identical-stream contracts.
// Any non-zero field (or a configured fault injector) adds the resilient
// layer to every shard's backend stack; a network-connected sampler
// always has it.
//
// Deadlines bound waiting, not compute: a per-attempt deadline unblocks
// calls that wait on ctx.Done — injected stalls/latency and network I/O
// — while in-process segment counting is bounded by the draw loop's own
// cancellation polling. Retries use capped exponential backoff with full
// jitter; the jitter randomness comes from a per-(query, shard, op)
// substream derived from the query's stream seed — NOT from the query's
// main RNG stream, which must stay untouched on fault-free rounds so
// same-seed sample streams remain bit-identical with an idle injector,
// and which parallel-armed shards must not race on.
type Resilience struct {
	// Deadline bounds each individual attempt of each per-shard call;
	// 0 means no deadline.
	Deadline time.Duration
	// Retries is the number of extra attempts after the first failure of
	// a per-shard call; 0 means fail on the first error.
	Retries int
	// BackoffBase is the cap of the first retry's jittered sleep
	// (defaults to 1ms when Retries > 0); attempt i sleeps a uniform
	// duration in (0, min(BackoffBase<<i, BackoffMax)].
	BackoffBase time.Duration
	// BackoffMax caps the backoff growth (defaults to 50ms).
	BackoffMax time.Duration
	// Degraded, when set, answers queries from the surviving shards when
	// one or more shards exhaust their budget: the lost shards leave the
	// union pool and every accepted draw is exactly uniform over the
	// survivors' union ball, with the loss reported on
	// QueryStats.Degraded. When unset, the first exhausted shard fails
	// the query with a typed *ShardError.
	Degraded bool
	// ProbeEvery is the re-admission cadence of the health registry: an
	// unhealthy shard is actually called on every ProbeEvery-th query
	// that would otherwise skip it (defaults to 8).
	ProbeEvery int
}

// enabled reports whether any policy field asks for the resilient
// layer.
func (r Resilience) enabled() bool {
	return r.Deadline > 0 || r.Retries > 0 || r.Degraded
}

// withDefaults resolves zero fields to their documented defaults.
func (r Resilience) withDefaults() Resilience {
	if r.BackoffBase <= 0 {
		r.BackoffBase = time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 50 * time.Millisecond
	}
	if r.ProbeEvery <= 0 {
		r.ProbeEvery = 8
	}
	return r
}

// opSalts separate the backoff-jitter substreams of the three backend
// operations of one (query, shard) pair, indexed like opNames.
var opSalts = [numOps]uint64{0xa12f, 0x5e67, 0x91c4}

// resilient is the resilience layer of a shard's backend stack (see
// Backend): every op runs under the policy's health gate, per-attempt
// deadline, bounded retries with jittered backoff, and panic
// containment.
type resilient[P any] struct {
	Backend[P]
	res    Resilience
	health *healthRegistry
	met    *shardMetrics
	shard  int
}

// Arm arms under the envelope and, on success, feeds the health
// registry the estimate (re-admitting a probed shard).
//
//fairnn:noalloc
func (b *resilient[P]) Arm(ctx context.Context, c *slot[P], q P, st *core.QueryStats) error {
	//fairnn:allocok resilience envelope: one closure per call buys panic/deadline containment
	err := b.call(ctx, c, opArm, func(actx context.Context) error {
		// Each attempt re-arms from a clean plan: a prior attempt may
		// have panicked or timed out partway through arming.
		c.plan.Abort()
		return b.Backend.Arm(actx, c, q, st)
	})
	if err == nil && b.health.ok(b.shard, c.plan.Estimate()) {
		b.met.readmitted()
	}
	return err
}

// SegmentNear is the backend's SegmentNear under the envelope.
//
//fairnn:noalloc
func (b *resilient[P]) SegmentNear(ctx context.Context, c *slot[P], h int, st *core.QueryStats) (n int, err error) {
	//fairnn:allocok resilience envelope: one closure per call buys panic/deadline containment
	err = b.call(ctx, c, opSegment, func(actx context.Context) (err error) {
		n, err = b.Backend.SegmentNear(actx, c, h, st)
		return err
	})
	return n, err
}

// Pick is the backend's Pick under the envelope.
//
//fairnn:noalloc
func (b *resilient[P]) Pick(ctx context.Context, c *slot[P], r *rng.Source) (id int32, err error) {
	//fairnn:allocok resilience envelope: one closure per call buys panic/deadline containment
	err = b.call(ctx, c, opPick, func(actx context.Context) (err error) {
		id, err = b.Backend.Pick(actx, c, r)
		return err
	})
	return id, err
}

// safeCall invokes fn and converts a panic — an injected PanicRate
// fault, or a poisoned point reaching a user Space/Family callback —
// into an ordinary *core.PanicError with the stack captured, so one bad
// shard call is a retriable failure instead of a process crash.
//
//fairnn:noalloc
//fairnn:fanout-safe converts panics into retriable *core.PanicError returns
func safeCall(ctx context.Context, fn func(context.Context) error) (err error) {
	//fairnn:allocok deferred recover closure captures only err; open-coded by the compiler
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*core.PanicError)
			if !ok {
				pe = core.NewPanicError(r)
			}
			err = pe
		}
	}()
	return fn(ctx)
}

// backoffDelay is the attempt-i sleep: uniform in (0, cap] where cap is
// the exponentially grown base clamped to max (full jitter, so
// concurrent retries against one struggling shard spread out instead of
// synchronizing).
//
//fairnn:noalloc
func backoffDelay(r *rng.Source, base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(r.Intn(int(d))) + 1
}

// sleepCtx sleeps d or returns early with ctx.Err() on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call runs one backend operation under the resilience policy:
// health-registry gate, per-attempt deadline, bounded retries with
// jittered backoff, panic containment, and unhealthy-marking on budget
// exhaustion. A nil return means the operation succeeded on some
// attempt; any error is a *ShardError carrying the final cause. Parent
// cancellation is surfaced immediately and does NOT mark the shard
// unhealthy — an impatient caller is not evidence against the shard.
//
// Retries and backoff sleeps land in their counters, and on a traced
// query the op's span (c.sp, opened by the telemetry layer above)
// collects the retry and fail-fast annotations. All of it is
// observational: no randomness from the query stream, no allocations,
// no-op without a registry.
//
//fairnn:noalloc
func (b *resilient[P]) call(ctx context.Context, c *slot[P], op int, fn func(context.Context) error) error {
	j := b.shard
	if !b.health.allow(j) {
		if c.sp != nil {
			c.sp.Note("health gate: shard down, failing fast")
		}
		return &ShardError{Shard: j, Op: opNames[op], Err: ErrShardDown} //fairnn:allocok cold failure path: shard already marked down
	}
	var br rng.Source
	brSeeded := false
	var lastErr error
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if b.res.Deadline > 0 {
			actx, cancel = context.WithTimeout(ctx, b.res.Deadline)
		}
		err := safeCall(actx, fn)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return &ShardError{Shard: j, Op: opNames[op], Err: ctx.Err()}
		}
		if attempt >= b.res.Retries {
			break
		}
		b.met.retried(j, op)
		if c.sp != nil {
			c.sp.Retry()
		}
		if !brSeeded {
			br.Seed(rng.Mix64(c.ses.boSeed ^ uint64(j)<<20 ^ opSalts[op]))
			brSeeded = true
		}
		if d := backoffDelay(&br, b.res.BackoffBase, b.res.BackoffMax, attempt); d > 0 {
			b.met.backoff(d)
			//fairnn:allocok retry-only backoff: reached after a failed attempt, never on a fault-free call
			if sleepCtx(ctx, d) != nil {
				return &ShardError{Shard: j, Op: opNames[op], Err: ctx.Err()}
			}
		}
	}
	b.health.fail(j)
	b.met.wentDown()
	return &ShardError{Shard: j, Op: opNames[op], Err: lastErr} //fairnn:allocok cold failure path: retries exhausted
}
