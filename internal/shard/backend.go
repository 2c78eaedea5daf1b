package shard

import (
	"context"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
)

// Backend is the per-shard failure-domain seam: every operation one
// logical sharded query performs against one shard — arming the plan
// (resolve + estimate), the per-round segment report, the post-accept
// point pick — crosses this interface and nothing else. Each shard's
// backend is a stack Sharded.compose builds once, from the inside out:
// the base (inProc, or remoteBackend over one wire connection to a
// fairnn-server), then faultBackend, resilient and observed, each only
// when configured. The draw loop makes one interface call per op
// whatever the stack; the plain stack is the bare base.
//
// The contract mirrors a remote call's: operations accept a context and
// may fail. ctx bounds *waiting* (injected faults and network I/O select
// on ctx.Done); in-process compute is synchronous and is instead bounded
// by the draw loop's own cancellation polling. A nil error from Arm
// means the slot's plan is armed and must eventually be released
// (Close/Abort); any error means the plan must be treated as unarmed.
//
// Every layer is allocated at build time and every op works on the
// query's pooled slot, so the seam costs no per-query allocation — the
// zero-alloc steady-state contract survives any stack.
type Backend[P any] interface {
	// Arm resolves q against the shard and arms c's plan for segment
	// draws (core.Independent.BeginShardPlan behind the seam).
	Arm(ctx context.Context, c *slot[P], q P, st *core.QueryStats) error
	// SegmentNear reports the exact number of distinct near points in
	// segment h of the armed plan's current pool, retaining the ids for
	// Pick.
	SegmentNear(ctx context.Context, c *slot[P], h int, st *core.QueryStats) (int, error)
	// Pick draws a uniform shard-local near id from the last SegmentNear
	// report, spending randomness from r.
	Pick(ctx context.Context, c *slot[P], r *rng.Source) (int32, error)
	// N returns the shard's indexed point count.
	N() int
	// RetainedScratchBytes reports the pooled scratch the shard pins
	// between queries.
	RetainedScratchBytes() int
}

// slot is one shard's part of a pooled session and the argument of
// every Backend op: the shard's armed plan, plus what the layers above
// the base read and write. Per-query state shared by all shards — the
// trace of a sampled query, the backoff-jitter seed — is reached through
// the back pointer to the session, so no layer allocates per query.
type slot[P any] struct {
	plan core.ShardPlan[P]
	ses  *session[P]
	// sp is the span of the shard's latest op on a traced query (nil
	// otherwise): observed opens and closes it, resilient annotates it,
	// and loseShard notes a loss on it.
	sp *obs.Span
	// lost marks a shard this query has lost (arm failure or mid-draw
	// budget exhaustion); est remembers its per-query estimate ŝ_j when it
	// armed before dying (-1 = unknown), err the arm error.
	lost bool
	est  float64
	err  error
}

// inProc is the in-process backend: a direct pass-through to the shard's
// Section 4 structure. It never returns an error on its own — failures
// in this process are panics, which the resilience layer converts to
// errors at the call boundary.
type inProc[P any] struct{ d *core.Independent[P] }

func (b *inProc[P]) Arm(_ context.Context, c *slot[P], q P, st *core.QueryStats) error {
	b.d.BeginShardPlan(&c.plan, q, st)
	return nil
}

func (b *inProc[P]) SegmentNear(_ context.Context, c *slot[P], h int, st *core.QueryStats) (int, error) {
	return c.plan.SegmentNear(h, st), nil
}

func (b *inProc[P]) Pick(_ context.Context, c *slot[P], r *rng.Source) (int32, error) {
	return c.plan.Pick(r), nil
}

func (b *inProc[P]) N() int { return b.d.N() }

func (b *inProc[P]) RetainedScratchBytes() int { return b.d.RetainedScratchBytes() }

// faultBackend decorates a backend with the fault injector: every
// operation consults the injector before delegating, so injected
// latency, errors, stalls, and panics hit exactly the surface a flaky
// remote shard would. It is only interposed when an injector is
// configured — a production sampler never pays for it.
type faultBackend[P any] struct {
	Backend[P]
	inj   *fault.Injector
	shard int
}

func (b *faultBackend[P]) Arm(ctx context.Context, c *slot[P], q P, st *core.QueryStats) error {
	if err := b.inj.Before(ctx, b.shard, fault.OpArm); err != nil {
		return err
	}
	return b.Backend.Arm(ctx, c, q, st)
}

func (b *faultBackend[P]) SegmentNear(ctx context.Context, c *slot[P], h int, st *core.QueryStats) (int, error) {
	if err := b.inj.Before(ctx, b.shard, fault.OpSegment); err != nil {
		return 0, err
	}
	return b.Backend.SegmentNear(ctx, c, h, st)
}

func (b *faultBackend[P]) Pick(ctx context.Context, c *slot[P], r *rng.Source) (int32, error) {
	if err := b.inj.Before(ctx, b.shard, fault.OpPick); err != nil {
		return 0, err
	}
	return b.Backend.Pick(ctx, c, r)
}

// observed is the telemetry layer, outermost in the stack: each call's
// whole latency — retries and backoff included — lands in the
// per-(shard, op) histogram, a failed call in the error counter, and on
// a traced query the call becomes one span of the trace. It is composed
// only with a registry. Recording never allocates; spans exist only on
// the 1-in-N traced queries.
type observed[P any] struct {
	Backend[P]
	met   *shardMetrics
	shard int
}

// begin opens op's span on a traced query and returns the call's start
// time.
//
//fairnn:noalloc
func (b *observed[P]) begin(c *slot[P], op int) time.Time {
	c.sp = nil
	if tr := c.ses.trace; tr != nil {
		c.sp = tr.Begin(opNames[op], b.shard)
	}
	return time.Now()
}

// done records the finished call and closes its span.
//
//fairnn:noalloc
func (b *observed[P]) done(c *slot[P], op int, t0 time.Time, err error) {
	b.met.opDone(b.shard, op, time.Since(t0), err)
	if c.sp != nil {
		c.sp.Done(err)
	}
}

func (b *observed[P]) Arm(ctx context.Context, c *slot[P], q P, st *core.QueryStats) error {
	t0 := b.begin(c, opArm)
	err := b.Backend.Arm(ctx, c, q, st)
	b.done(c, opArm, t0, err)
	return err
}

func (b *observed[P]) SegmentNear(ctx context.Context, c *slot[P], h int, st *core.QueryStats) (int, error) {
	t0 := b.begin(c, opSegment)
	n, err := b.Backend.SegmentNear(ctx, c, h, st)
	b.done(c, opSegment, t0, err)
	return n, err
}

func (b *observed[P]) Pick(ctx context.Context, c *slot[P], r *rng.Source) (int32, error) {
	t0 := b.begin(c, opPick)
	id, err := b.Backend.Pick(ctx, c, r)
	b.done(c, opPick, t0, err)
	return id, err
}
