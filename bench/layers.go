package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/lsh"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
	"fairnn/internal/set"
	"fairnn/internal/vector"
	"fairnn/internal/wire"
)

// seamOps are the per-shard operations of a sharded draw, in the order
// of the instrument arrays below: one arm per shard per call, one segment
// report per rejection round, one pick per accepted round.
var seamOps = [3]string{"arm", "segment", "pick"}

// hist is a histogram's count and summed nanoseconds.
type hist struct {
	n  uint64
	ns int64
}

func (h *hist) add(x *obs.Histogram) {
	h.n += x.Count()
	h.ns += x.Sum()
}

func (h hist) sub(o hist) hist { return hist{h.n - o.n, h.ns - o.ns} }

// meanUS is the mean observation in µs (0 when empty).
func (h hist) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.ns) / float64(h.n) / 1e3
}

// reading holds the telemetry totals the per-layer metrics derive from;
// two readings bracket a timed phase.
type reading struct {
	draw hist
	// seam, rtt and server are indexed like seamOps and summed over
	// shards: the shard layer's whole-call time per op, the wire client's
	// round trip, and the server's handling time.
	seam, rtt, server                           [3]hist
	retries, seamErrs, wireErrs, redials, sheds uint64
}

// read totals the registry's instruments. Registry lookups are
// get-or-create, so instruments a layer never registered read as zero.
func read(reg *obs.Registry, layer string, shards int) reading {
	var r reading
	r.draw.add(reg.Histogram("fairnn_draw_latency_seconds", obs.Labels("layer", layer), ""))
	for j := range shards {
		js := strconv.Itoa(j)
		for k, op := range seamOps {
			l := obs.Labels("shard", js, "op", op)
			r.seam[k].add(reg.Histogram("fairnn_shard_op_latency_seconds", l, ""))
			r.rtt[k].add(reg.Histogram("fairnn_client_request_seconds", l, ""))
			r.server[k].add(reg.Histogram("fairnn_server_request_seconds", l, ""))
			r.retries += reg.Counter("fairnn_shard_op_retries_total", l, "").Value()
			r.seamErrs += reg.Counter("fairnn_shard_op_errors_total", l, "").Value()
			r.wireErrs += reg.Counter("fairnn_client_request_errors_total", l, "").Value()
		}
		l := obs.Labels("shard", js)
		r.redials += reg.Counter("fairnn_client_redials_total", l, "").Value()
		r.sheds += reg.Counter("fairnn_server_deadline_sheds_total", l, "").Value()
	}
	return r
}

func (r reading) sub(o reading) reading {
	d := reading{
		draw:     r.draw.sub(o.draw),
		retries:  r.retries - o.retries,
		seamErrs: r.seamErrs - o.seamErrs,
		wireErrs: r.wireErrs - o.wireErrs,
		redials:  r.redials - o.redials,
		sheds:    r.sheds - o.sheds,
	}
	for k := range seamOps {
		d.seam[k] = r.seam[k].sub(o.seam[k])
		d.rtt[k] = r.rtt[k].sub(o.rtt[k])
		d.server[k] = r.server[k].sub(o.server[k])
	}
	return d
}

// ratio is a/b, 0 when b is 0.
func ratio[T int | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countMetrics adds the per-layer metrics read off the first pass's
// QueryStats; they repeat exactly on single-caller workloads.
func countMetrics(res *result, layer string, p *phase) {
	n := float64(p.firstCalls)
	st := p.stats
	res.add("core.rounds_per_query", float64(st.Rounds)/n, "count")
	res.add("core.accept_ratio", ratio(p.found, st.Rounds), "ratio")
	res.add("core.score_evals_per_query", float64(st.ScoreEvals)/n, "count")
	res.add("core.points_inspected_per_query", float64(st.PointsInspected)/n, "count")
	res.add("core.memo_hit_ratio", ratio(st.ScoreCacheHits, st.ScoreCacheHits+st.ScoreEvals), "ratio")
	res.add("core.batch_scored_share", ratio(st.BatchScored, st.ScoreEvals), "ratio")
	res.add("core.clamped", float64(p.clamped), "count")
	if layer == "filter" {
		res.add("filter.evals_per_query", float64(st.FilterEvals)/n, "count")
	} else {
		res.add("sketch.rel_err_p50", median(p.relErr), "ratio")
	}
}

// layerMetrics adds the per-layer metrics of a traced
// phase p — telemetry delta d, untraced baseline base — and returns the
// latency budget (meaningful for remote systems only).
func layerMetrics[P any](res *result, sys *system[P], layer string, d reading, base, p *phase) budget {
	countMetrics(res, layer, p)
	bn := float64(base.calls)
	res.add("runtime.allocs_per_query", float64(base.allocs)/bn, "count")
	res.add("runtime.bytes_per_query", float64(base.bytes)/bn, "B")
	res.add("runtime.gc_per_kquery", 1000*float64(base.gcs)/bn, "count")
	if p50, ok := percentile(p.latUS, 0.5); ok {
		if b50, ok := percentile(base.latUS, 0.5); ok {
			res.add("obs.trace_overhead", p50/b50, "ratio")
		}
	}
	if sys.shards == 0 {
		res.add("core.draw_us", d.draw.meanUS(), "us")
		return budget{}
	}

	calls := float64(p.calls)
	perCall := func(ns int64) float64 { return float64(ns) / calls / 1e3 }
	res.add("shard.arms_per_query", float64(d.seam[0].n)/calls, "count")
	res.add("shard.arm_us", d.seam[0].meanUS(), "us")
	arm, draw := perCall(d.seam[0].ns), perCall(d.draw.ns)
	segPick := perCall(d.seam[1].ns + d.seam[2].ns)
	if d.seam[1].n > 0 {
		// The seam records segment and pick calls only on its resilient
		// path, which a remote sampler always takes; in process they run
		// unrecorded inside the draw loop.
		res.add("shard.segments_per_query", float64(d.seam[1].n)/calls, "count")
		res.add("shard.picks_per_query", float64(d.seam[2].n)/calls, "count")
		res.add("shard.segment_us", d.seam[1].meanUS(), "us")
		res.add("shard.pick_us", d.seam[2].meanUS(), "us")
		res.add("shard.self_us", draw-segPick, "us")
	}
	res.add("shard.retries", float64(d.retries), "count")
	res.add("shard.errors", float64(d.seamErrs), "count")
	res.add("client.self_us", mean(p.latUS)-arm-draw, "us")
	if !sys.remote {
		return budget{}
	}

	var ops [3]opCost
	var trips uint64
	var rttNS, serverNS int64
	for k, op := range seamOps {
		trips += d.rtt[k].n
		rttNS += d.rtt[k].ns
		serverNS += d.server[k].ns
		ops[k] = opCost{
			perCall: float64(d.rtt[k].n) / calls,
			server:  d.server[k].meanUS(),
			wait:    d.rtt[k].meanUS() - d.server[k].meanUS(),
		}
		res.add("wire."+op+"_rtt_us", d.rtt[k].meanUS(), "us")
		res.add("server."+op+"_us", d.server[k].meanUS(), "us")
	}
	res.add("wire.roundtrips_per_query", float64(trips)/calls, "count")
	res.add("wire.wait_us", ratio(float64(rttNS-serverNS), float64(trips))/1e3, "us")
	res.add("wire.errors", float64(d.wireErrs), "count")
	res.add("wire.redials", float64(d.redials), "count")
	res.add("server.deadline_sheds", float64(d.sheds), "count")
	b := newBudget(mean(p.latUS), arm, draw, segPick, ops)
	res.add("budget.residual_frac", b.frac(), "ratio")
	return b
}

// maxResidual is the largest share of a remote call's mean time the
// latency budget may leave unattributed.
const maxResidual = 0.10

// opCost is one seam operation's share of a remote call.
type opCost struct {
	perCall float64 // round trips per call
	server  float64 // µs of server handling per round trip
	wait    float64 // µs per round trip outside the server: network, queues, codecs
}

// budget splits a remote call's mean wall time (µs) into layers:
//
//	call = client.self + shard.self + Σ_op perCall × (server + wait) + residual
//
// client.self is the call's time outside the shard layer (its arm phase
// and its draw loop); shard.self is the draw loop's time outside its
// segment and pick operations. The residual is time no instrument
// attributes: the shard seam's per-op time beyond the wire round trip.
type budget struct {
	call, client, shard float64
	ops                 [3]opCost
	residual            float64
}

// newBudget builds the budget from the mean call time and the per-call
// means of the shard layer's arm phase, draw loop, and segment+pick ops.
func newBudget(call, arm, draw, segPick float64, ops [3]opCost) budget {
	b := budget{call: call, client: call - arm - draw, shard: draw - segPick, ops: ops}
	b.residual = call - b.client - b.shard
	for _, o := range ops {
		b.residual -= o.perCall * (o.server + o.wait)
	}
	return b
}

// frac is the residual's share of the mean call.
func (b budget) frac() float64 {
	if b.call == 0 {
		return 0
	}
	return math.Abs(b.residual) / b.call
}

func (b budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mean call %.1f us = client.self %.1f + shard.self %.1f", b.call, b.client, b.shard)
	for k, o := range b.ops {
		fmt.Fprintf(&sb, " + %s %.2f x (server %.2f + wait %.2f)", seamOps[k], o.perCall, o.server, o.wait)
	}
	fmt.Fprintf(&sb, " + residual %.1f (%.1f%%)", b.residual, 100*b.frac())
	return sb.String()
}

// probeRounds is how many times a probe repeats its loop; it reports the
// median round.
const probeRounds = 5

// perUnit runs fn probeRounds times — each run does units units of work —
// and returns the median nanoseconds per unit.
func perUnit(units int, fn func() error) (float64, error) {
	rounds := make([]float64, probeRounds)
	for i := range rounds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		rounds[i] = float64(time.Since(t0)) / float64(units)
	}
	return median(rounds), nil
}

// observeProbe times the telemetry record path.
func observeProbe() (metric, error) {
	h := obs.NewHistogram()
	const units = 1 << 18
	ns, err := perUnit(units, func() error {
		for i := range units {
			h.Observe(time.Duration(i&4095) * 100)
		}
		return nil
	})
	return metric{"obs.observe_ns", ns, "ns"}, err
}

// lineShardProbes times the core operations a shard serves — arming a
// plan and one segment report — on shard index d, over the workload's own
// query points.
func lineShardProbes(d *core.Independent[int], qs []query[int]) []metric {
	const segs = 8
	var arm, seg time.Duration
	var nArm, nSeg int
	for i, q := range qs[:min(len(qs), 500)] {
		var p core.ShardPlan[int]
		t0 := time.Now()
		d.BeginShardPlan(&p, q.p, nil)
		arm += time.Since(t0)
		nArm++
		k := p.Segments()
		t1 := time.Now()
		for h := range min(k, segs) {
			p.SegmentNearAt((i*segs+h)%k, k, nil)
		}
		seg += time.Since(t1)
		nSeg += min(k, segs)
		p.Close()
	}
	return []metric{
		{"core.arm_us", ratio(float64(arm), float64(nArm)) / 1e3, "us"},
		{"core.segment_us", ratio(float64(seg), float64(nSeg)) / 1e3, "us"},
	}
}

// wireProbes times a no-op round trip (a health request) to the server
// at addr, and the segment request/response codec.
func wireProbes(addr string) ([]metric, error) {
	c, err := wire.Dial(addr, wire.IntCodec{}.Name(), dialTimeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	const trips = 500
	rtt, err := perUnit(trips, func() error {
		for range trips {
			if _, err := wire.HealthCall(context.Background(), c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	const codings = 1 << 14
	var req, resp []byte
	codec, err := perUnit(codings, func() error {
		for i := range codings {
			req = wire.AppendSegReq(req[:0], wire.SegReq{PlanID: uint64(i), H: i & 255, K: 256})
			m, err := wire.DecodeSegReq(req)
			if err != nil {
				return err
			}
			resp = wire.AppendSegResp(resp[:0], wire.SegResp{Count: m.H, Stats: wire.StatDelta{Points: uint32(i)}})
			if _, err := wire.DecodeSegResp(resp); err != nil {
				return err
			}
		}
		return nil
	})
	return []metric{{"wire.noop_rtt_us", rtt / 1e3, "us"}, {"wire.codec_ns", codec, "ns"}}, err
}

// signProbe times one whole LSH signature — K·L one-bit MinHash values,
// the sampler's own parameters — of each query set.
//
//fairnn:rng-source the probe's hash functions, drawn from the benchmark seed
func signProbe(p lsh.Params, qs []set.Set, seed uint64) (metric, error) {
	sg := lsh.NewSigner[set.Set](lsh.OneBitMinHash{}, p.K*p.L, rng.New(seed))
	out := make([]uint64, p.K*p.L)
	const reps = 8
	ns, err := perUnit(reps*len(qs), func() error {
		for range reps {
			for _, q := range qs {
				sg.Sign(q, out)
			}
		}
		return nil
	})
	return metric{"lsh.sign_us", ns / 1e3, "us"}, err
}

// vectorProbes times the batched distance kernels, per pair, over the
// workload's points.
func vectorProbes(q vector.Vec, pts []vector.Vec) ([]metric, error) {
	out := make([]float64, len(pts))
	const reps = 64
	kernel := func(fn func(vector.Vec, []vector.Vec, []float64)) (float64, error) {
		return perUnit(reps*len(pts), func() error {
			for range reps {
				fn(q, pts, out)
			}
			return nil
		})
	}
	dot, err := kernel(vector.DotBatch)
	if err != nil {
		return nil, err
	}
	sq, err := kernel(vector.SquaredEuclideanBatch)
	return []metric{{"vector.dot_ns", dot, "ns"}, {"vector.sqdist_ns", sq, "ns"}}, err
}
