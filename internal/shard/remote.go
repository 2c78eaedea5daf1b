package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
	"fairnn/internal/wire"
)

// This file is the client half of the multi-node serving layer: a
// Backend base that runs each per-shard operation over one wire
// connection to a fairnn-server process. The layers composed over it —
// fault injection, the deadline/retry/backoff envelope, telemetry — and
// everything above the seam — the union draw, the single per-query RNG
// stream, degraded mode, the health registry — apply to remote shards
// verbatim.
//
// Determinism over the wire: arming mirrors (ŝ, k0) into a client-side
// plan whose ResetDraw/Segments/Halve arithmetic is pure; the segment
// request carries the client's current k; and the pick request carries
// an index drawn from the query stream on the client (spending exactly
// the Intn draw the in-process Pick spends). The server holds no
// randomness, so a fault-free same-seed query stream is bit-identical
// to the in-process sampler over the same build.

// ShardSeed derives shard j's structure seed from the global build seed
// — the same derivation BuildConfig uses, exported so an out-of-process
// shard build (cmd/fairnn-server) constructs bit-identical structures.
func ShardSeed(seed uint64, j int) uint64 { return seed + uint64(j)*0x9e3779b97f4a7c15 }

// remotePlan is the client-side handle of a server-armed plan: the
// connection, the plan id, and the size of the last segment report
// (needed to draw the pick index locally).
type remotePlan struct {
	c     *wire.Client
	id    uint64
	lastN int
}

// Release implements core.ShardPlanExternal: one-way notify, best
// effort — if the connection is gone the server's connection teardown
// has already reclaimed the plan.
func (rp *remotePlan) Release() { _ = wire.ReleaseNotify(rp.c, rp.id) }

// remoteBackend runs the Backend ops against one fairnn-server.
type remoteBackend[P any] struct {
	c     *wire.Client
	codec wire.PointCodec[P]
	shard int
	n     int
}

// Arm implements Backend over the wire: a new plan id is armed on the
// server and the reported (ŝ, k0) are mirrored into c's plan.
func (b *remoteBackend[P]) Arm(ctx context.Context, c *slot[P], q P, st *core.QueryStats) error {
	id := b.c.NextPlanID()
	resp, err := wire.ArmCall(ctx, b.c, b.codec, id, q)
	if err != nil {
		// The server may have armed the plan after this client gave up
		// (deadline races the response): release it best-effort, but only
		// when the connection survived — a dead connection reclaims all
		// its plans on its own.
		var re *wire.RemoteError
		if errors.As(err, &re) {
			_ = wire.ReleaseNotify(b.c, id)
		}
		return mapRemoteErr(err)
	}
	c.plan.ArmExternal(&remotePlan{c: b.c, id: id}, resp.Est, resp.K0)
	applyDelta(st, resp.Stats)
	return nil
}

// SegmentNear implements Backend over the wire: the request carries the
// plan's current (h, k) so the server computes the same segment bounds
// the in-process plan would; the report's ids stay on the server and
// only the count returns.
func (b *remoteBackend[P]) SegmentNear(ctx context.Context, c *slot[P], h int, st *core.QueryStats) (int, error) {
	rp, ok := c.plan.External().(*remotePlan)
	if !ok {
		return 0, fmt.Errorf("shard %d: segment on an unarmed remote plan", b.shard)
	}
	resp, err := wire.SegmentCall(ctx, b.c, rp.id, h, c.plan.Segments())
	if err != nil {
		return 0, mapRemoteErr(err)
	}
	rp.lastN = resp.Count
	applyDelta(st, resp.Stats)
	return resp.Count, nil
}

// Pick implements Backend over the wire. The index into the last
// segment report is drawn from r on the client — the same single Intn
// draw the in-process Pick performs, in the same stream position — and
// the server only dereferences it.
func (b *remoteBackend[P]) Pick(ctx context.Context, c *slot[P], r *rng.Source) (int32, error) {
	rp, ok := c.plan.External().(*remotePlan)
	if !ok || rp.lastN <= 0 {
		return 0, fmt.Errorf("shard %d: pick without a positive segment report", b.shard)
	}
	idx := r.Intn(rp.lastN)
	id, err := wire.PickCall(ctx, b.c, rp.id, idx)
	if err != nil {
		return 0, mapRemoteErr(err)
	}
	return id, nil
}

// N implements Backend from the handshake's shard point count.
func (b *remoteBackend[P]) N() int { return b.n }

// RetainedScratchBytes implements Backend: the scratch lives on the
// server, so the client-side answer is zero.
func (b *remoteBackend[P]) RetainedScratchBytes() int { return 0 }

// mapRemoteErr maps wire-level failures onto the shard layer's error
// vocabulary: a draining server is indistinguishable from a down shard
// (the health registry should skip it and probe later), everything else
// passes through for the retry envelope to judge.
func mapRemoteErr(err error) error {
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code == wire.CodeDraining {
		return fmt.Errorf("%w: %v", ErrShardDown, err)
	}
	return err
}

// applyDelta folds a wire stats delta into the query's stats record.
func applyDelta(st *core.QueryStats, d wire.StatDelta) {
	if st == nil {
		return
	}
	st.BucketsScanned += int(d.Buckets)
	st.PointsInspected += int(d.Points)
	st.ScoreEvals += int(d.ScoreEvals)
	st.BatchScored += int(d.BatchScored)
	st.ScoreCacheHits += int(d.CacheHits)
	st.MemoProbes += int(d.MemoProbes)
	st.FilterEvals += int(d.FilterEvals)
	st.CursorMerged = st.CursorMerged || d.CursorMerged
}

// RemoteConfig collects the knobs of a network-connected sampler. The
// zero value of every field is valid: RoundRobin partitioning, the
// default resilience policy, no injector, unbounded dial.
type RemoteConfig struct {
	// Partitioner must name the same scheme the server fleet was built
	// with — the client rebuilds the local→global id translation from it
	// (points never cross the wire). nil defaults to RoundRobin.
	Partitioner Partitioner
	// Resilience is the per-shard-call fault-tolerance policy. Unlike
	// the in-process sampler, a remote sampler ALWAYS has the resilient
	// layer (sockets fail; errors must be observed), so the zero value
	// here means "resilient layer with default knobs", not "no layer".
	Resilience Resilience
	// Injector, when non-nil, interposes the fault-injection harness on
	// every remote call with the same per-(shard, op, ordinal)
	// determinism as in-process (tests only).
	Injector *fault.Injector
	// DialTimeout bounds each connection attempt and handshake
	// (including lazy redials after a connection death); 0 means no
	// bound.
	DialTimeout time.Duration
	// Obs, when non-nil, registers the shard-layer telemetry bundle plus
	// each connection's wire-client instruments (per-op round-trip
	// latency, redials) and records into them. A nil registry is
	// contractually invisible.
	Obs *obs.Registry
	// TraceEveryN, with Obs set, samples roughly one query in N into the
	// registry's tracer; 0 disables tracing.
	TraceEveryN int
}

// Connect dials one fairnn-server per address and assembles a Sharded
// sampler over the fleet. Address order defines shard order: addrs[j]
// must serve shard j of a len(addrs)-shard build, and every server must
// report the same global point count, λ, Σ, and radius — the handshake
// metadata is cross-checked so a mis-assembled or mixed-build fleet
// fails here, loudly, instead of sampling from a subtly wrong
// distribution. The per-shard point counts implied by cfg.Partitioner
// are checked against each server's, because the client's local→global
// id translation is rebuilt from the partitioner alone.
//
// The returned sampler must be Closed when done.
func Connect[P any](codec wire.PointCodec[P], addrs []string, cfg RemoteConfig) (*Sharded[P], error) {
	shards := len(addrs)
	if shards < 1 {
		return nil, errors.New("shard: no server addresses")
	}
	if cfg.Injector != nil && cfg.Injector.Shards() != shards {
		return nil, fmt.Errorf("shard: fault injector built for %d shards, fleet has %d", cfg.Injector.Shards(), shards)
	}
	part := cfg.Partitioner
	if part == nil {
		part = RoundRobin{}
	}

	clients := make([]*wire.Client, 0, shards)
	fail := func(err error) (*Sharded[P], error) {
		for _, c := range clients {
			c.Close()
		}
		return nil, err
	}
	for j, addr := range addrs {
		c, err := wire.Dial(addr, codec.Name(), cfg.DialTimeout)
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", j, err))
		}
		clients = append(clients, c)
		m := c.Meta()
		if m.ShardIndex != j || m.ShardCount != shards {
			return fail(fmt.Errorf("shard: server %s identifies as shard %d of %d, connected as shard %d of %d", addr, m.ShardIndex, m.ShardCount, j, shards))
		}
	}
	m0 := clients[0].Meta()
	if m0.GlobalN < 1 {
		return fail(fmt.Errorf("shard: server %s reports global point count %d", addrs[0], m0.GlobalN))
	}
	for j, c := range clients {
		m := c.Meta()
		if m.GlobalN != m0.GlobalN || m.Lambda != m0.Lambda || m.Sigma != m0.Sigma || m.Radius != m0.Radius {
			return fail(fmt.Errorf("shard: fleet build mismatch: shard %d has (n=%d λ=%g Σ=%d r=%g), shard 0 has (n=%d λ=%g Σ=%d r=%g)",
				j, m.GlobalN, m.Lambda, m.Sigma, m.Radius, m0.GlobalN, m0.Lambda, m0.Sigma, m0.Radius))
		}
	}

	// Rebuild the local→global translation from the partitioner and
	// cross-check the implied shard sizes against the servers'.
	n := m0.GlobalN
	toGlobal := make([][]int32, shards)
	for i := 0; i < n; i++ {
		j := part.Assign(i, n, shards)
		if j < 0 || j >= shards {
			return fail(fmt.Errorf("shard: partitioner %q assigned point %d to shard %d of %d", part.Name(), i, j, shards))
		}
		toGlobal[j] = append(toGlobal[j], int32(i))
	}
	for j, c := range clients {
		if got, want := c.Meta().ShardN, len(toGlobal[j]); got != want {
			return fail(fmt.Errorf("shard: server %s holds %d points, partitioner %q implies %d for shard %d — wrong partitioner or wrong fleet", addrs[j], got, part.Name(), want, j))
		}
	}

	s := &Sharded[P]{
		toGlobal: toGlobal,
		lambda:   m0.Lambda,
		sigma:    m0.Sigma,
		partName: part.Name(),
		size:     n,
		qseed:    m0.QueryStreamSeed,
		conns:    clients,
	}
	bases := make([]Backend[P], shards)
	for j, c := range clients {
		c.Observe(cfg.Obs)
		bases[j] = &remoteBackend[P]{c: c, codec: codec, shard: j, n: c.Meta().ShardN}
	}
	s.compose(bases, Config{Resilience: cfg.Resilience, Injector: cfg.Injector, Obs: cfg.Obs, TraceEveryN: cfg.TraceEveryN}, true)
	s.pool.SetCap(core.MemoOptions{}.Resolved().MaxRetainedQueriers)
	return s, nil
}

// Close releases the sampler's long-lived external resources — the
// per-shard connections of a network-connected sampler. On an
// in-process sampler it is a no-op. Safe to call more than once;
// queries issued after Close fail as shard-down.
func (s *Sharded[P]) Close() error {
	for _, c := range s.conns {
		_ = c.Close()
	}
	return nil
}

// HealthRecords converts the sampler's health snapshot into its wire
// image, for serving over a HealthServer operator endpoint.
func HealthRecords[P any](s *Sharded[P]) []wire.HealthRecord {
	hs := s.Health()
	out := make([]wire.HealthRecord, len(hs))
	for i, h := range hs {
		out[i] = wire.HealthRecord{
			Shard:        h.Shard,
			Healthy:      h.Healthy,
			Failures:     h.Failures,
			Skipped:      h.Skipped,
			Probes:       h.Probes,
			Readmissions: h.Readmissions,
		}
	}
	return out
}
