package shard

import (
	"strconv"
	"time"

	"fairnn/internal/obs"
)

// Backend-operation indices for the per-(shard, op) instrument tables,
// the span names and the backoff salts (opSalts in resilience.go): one
// name, one salt, one instrument row per seam operation.
const (
	opArm = iota
	opSegment
	opPick
	numOps
)

var opNames = [numOps]string{"arm", "segment", "pick"}

// traceRingCapacity is how many recent traces a sampler's tracer
// retains.
const traceRingCapacity = 32

// shardMetrics is the shard seam's instrument bundle: the layer="shard"
// draw-loop vocabulary plus per-(shard, op) backend-call latency and
// failure/retry counters, backoff accounting, and health-transition
// counters. A nil *shardMetrics (no registry configured) is a no-op
// recorder on every method — the disabled-telemetry contract — and the
// enabled record path is zero-alloc (all storage preallocated here).
type shardMetrics struct {
	draw *obs.QueryMetrics

	// opLat/opErr/opRetry are indexed [shard][op].
	opLat   [][numOps]*obs.Histogram
	opErr   [][numOps]*obs.Counter
	opRetry [][numOps]*obs.Counter

	backoffWaits *obs.Counter
	backoffNanos *obs.Counter
	shardLost    *obs.Counter
	healthDown   *obs.Counter
	healthReadm  *obs.Counter
}

// newShardMetrics registers the shard-layer bundle, preallocating every
// per-(shard, op) instrument so the record path never touches the
// registry. Returns nil on a nil registry.
func newShardMetrics(r *obs.Registry, shards int) *shardMetrics {
	if r == nil {
		return nil
	}
	m := &shardMetrics{
		draw:         obs.NewQueryMetrics(r, "shard"),
		opLat:        make([][numOps]*obs.Histogram, shards),
		opErr:        make([][numOps]*obs.Counter, shards),
		opRetry:      make([][numOps]*obs.Counter, shards),
		backoffWaits: r.Counter("fairnn_shard_backoff_waits_total", "", "jittered backoff sleeps taken between shard-call retries"),
		backoffNanos: r.Counter("fairnn_shard_backoff_nanos_total", "", "total nanoseconds slept in shard-call backoff"),
		shardLost:    r.Counter("fairnn_shard_lost_total", "", "shards dropped from the union pool mid-query (degraded mode)"),
		healthDown:   r.Counter("fairnn_shard_health_down_total", "", "health-registry transitions to unhealthy"),
		healthReadm:  r.Counter("fairnn_shard_health_readmit_total", "", "probe successes re-admitting an unhealthy shard"),
	}
	for j := 0; j < shards; j++ {
		js := strconv.Itoa(j)
		for op, name := range opNames {
			l := obs.Labels("shard", js, "op", name)
			m.opLat[j][op] = r.Histogram("fairnn_shard_op_latency_seconds", l, "backend seam operation latency (whole call, retries included)")
			m.opErr[j][op] = r.Counter("fairnn_shard_op_errors_total", l, "backend seam operations that exhausted their budget")
			m.opRetry[j][op] = r.Counter("fairnn_shard_op_retries_total", l, "backend seam operation retry attempts")
		}
	}
	return m
}

// opDone records one whole backend call: its latency, and a failure
// when it returned an error (slow failures are the interesting ones, so
// their latency lands in the histogram too).
//
//fairnn:noalloc
func (m *shardMetrics) opDone(j, op int, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.opLat[j][op].Observe(d)
	if err != nil {
		m.opErr[j][op].Inc()
	}
}

// retried records one retry attempt of a backend call.
//
//fairnn:noalloc
func (m *shardMetrics) retried(j, op int) {
	if m == nil {
		return
	}
	m.opRetry[j][op].Inc()
}

// backoff records one jittered backoff sleep.
//
//fairnn:noalloc
func (m *shardMetrics) backoff(d time.Duration) {
	if m == nil {
		return
	}
	m.backoffWaits.Inc()
	m.backoffNanos.Add(uint64(d))
}

// lost records a shard leaving the union pool mid-query.
//
//fairnn:noalloc
func (m *shardMetrics) lost() {
	if m == nil {
		return
	}
	m.shardLost.Inc()
}

// wentDown records a health transition to unhealthy.
//
//fairnn:noalloc
func (m *shardMetrics) wentDown() {
	if m == nil {
		return
	}
	m.healthDown.Inc()
}

// readmitted records a probe success flipping a shard healthy.
//
//fairnn:noalloc
func (m *shardMetrics) readmitted() {
	if m == nil {
		return
	}
	m.healthReadm.Inc()
}
