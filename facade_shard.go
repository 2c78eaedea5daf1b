package fairnn

import (
	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/shard"
)

// This file is the sharding surface of the façade: the Sharded sampler
// (internal/shard) partitions the point set across S shards, builds one
// Section 4 structure per shard in parallel, and answers queries with the
// uniformity-preserving two-stage draw — shard chosen with probability
// proportional to its per-query near-count estimate, estimate error
// corrected by the same rejection step the paper uses to sample uniformly
// from a union of buckets. NewSet/NewVec build it with WithShards
// (optionally WithPartitioner and the resilience options) by calling
// shard.BuildConfig; this file holds the types and helpers they expose.

// Sharded is a fair sampler over a point set partitioned across S shards.
// It satisfies the full Sampler contract: every Sample is exactly uniform
// over the union ball B_S(q, r) and consecutive draws are independent
// (Theorem 2 lifted to the partitioned index), with returned ids in the
// global index space of the original point slice. With one shard the
// sampler is bit-identical — same-seed streams and all — to the unsharded
// SetIndependent/VecSamplerIndependent it wraps. Query methods are safe
// for concurrent use and steady-state Sample allocates nothing;
// QueryStats gains per-shard counters (ShardRounds, ShardEstimates,
// ShardChosen) on sharded queries.
//
// Sharded wraps read-only samplers only: the per-shard structures are
// immutable after construction (Algorithm(Dynamic) combined with
// WithShards returns ErrShardedDynamic instead of misbehaving).
type Sharded[P any] = shard.Sharded[P]

// Partitioner assigns each global point index to a shard (see
// RoundRobinPartitioner and HashPartitioner for the built-in schemes).
// Assign must be deterministic and return a value in [0, shards).
type Partitioner = shard.Partitioner

// RoundRobinPartitioner stripes points across shards in index order —
// shard sizes differ by at most one. The default.
func RoundRobinPartitioner() Partitioner { return shard.RoundRobin{} }

// HashPartitioner assigns each point by a seeded hash of its index, so
// shard loads stay balanced in expectation regardless of input order
// (round-robin can stripe adversarially ordered input into correlated
// shards). The seed keys the hash; 0 is a valid fixed key.
func HashPartitioner(seed uint64) Partitioner { return shard.Hash{Seed: seed} }

// ErrDegraded marks every error meaning "the sharded index could not
// answer at full strength" — a *ShardError when a shard exhausted its
// deadline/retry budget with degradation off, or the bare sentinel when
// degraded mode lost every shard. Match with errors.Is(err, ErrDegraded).
// A successful degraded answer is not an error: it is reported on
// QueryStats.Degraded (see DegradedInfo).
var ErrDegraded = shard.ErrDegraded

// ErrShardDown is the cause inside a *ShardError when the health
// registry skipped an unhealthy shard without calling it (fail-fast
// between re-admission probes).
var ErrShardDown = shard.ErrShardDown

// ShardError is a typed per-shard failure: the shard, the backend
// operation ("arm", "segment", "pick"), and the final cause after the
// deadline/retry budget was spent. It matches errors.Is(err, ErrDegraded).
type ShardError = shard.ShardError

// DegradedInfo reports a degraded sharded query on QueryStats.Degraded:
// which shards were lost, how many indexed points they held, and the
// estimated fraction of the union ball the surviving shards cover. The
// answer itself remains exactly uniform — over the survivors' union
// ball.
type DegradedInfo = core.DegradedInfo

// ShardHealth is a point-in-time snapshot of one shard's health record;
// see Sharded.Health.
type ShardHealth = shard.ShardHealth

// ShardResilience is the per-shard-call fault-tolerance policy of a
// sharded sampler, normally assembled via the WithShardDeadline /
// WithShardRetry / WithShardBackoff / WithDegradedMode /
// WithShardProbeEvery options. The zero value disables the policy:
// without WithFaultInjection, the shards' backend stacks then have no
// resilience layer.
type ShardResilience = shard.Resilience

// FaultInjector is the deterministic fault-injection harness wired
// through the sharded backend seam by WithFaultInjection: seeded
// per-shard latency, error, stall, and panic injection whose every
// decision is a pure function of (seed, shard, operation, call ordinal).
// Tests only; an idle injector is contractually invisible.
type FaultInjector = fault.Injector

// FaultSpec declares one fault schedule of a FaultInjector (shard/op
// filters, call-ordinal window, per-call rates, added latency).
type FaultSpec = fault.Spec

// FaultOp names a per-shard backend operation a FaultSpec can intercept.
type FaultOp = fault.Op

// The interceptable backend operations.
const (
	FaultOpArm     = fault.OpArm
	FaultOpSegment = fault.OpSegment
	FaultOpPick    = fault.OpPick
)

// ErrInjected is the transient error injected by FaultSpec.ErrRate.
var ErrInjected = fault.ErrInjected

// NewFaultInjector builds a fault injector for a sampler with the given
// shard count; identical (seed, specs, call sequence) produce identical
// faults. FaultAlways as a rate makes a spec fire on every matching
// call.
func NewFaultInjector(shards int, seed uint64, specs ...FaultSpec) *FaultInjector {
	return fault.New(shards, seed, specs...)
}

// FaultAlways is a rate that fires on every matching call.
const FaultAlways = fault.Always
