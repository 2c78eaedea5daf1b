package core

import (
	"context"
	"iter"
	"math"
	"math/bits"
	"slices"
	"time"

	"fairnn/internal/lsh"
	"fairnn/internal/obs"
	"fairnn/internal/rank"
	"fairnn/internal/rng"
	"fairnn/internal/sketch"
)

// IndependentOptions tunes the Section 4 data structure. Zero values select
// the paper's asymptotic choices with practical constants.
type IndependentOptions struct {
	// Lambda is the per-segment cap λ = Θ(log n) on near neighbors; the
	// acceptance probability of a segment is λ_q,h / λ.
	Lambda int
	// SigmaBudget is Σ = Θ(log² n): after Σ sampled segments without
	// success, the segment count k is halved.
	SigmaBudget int
	// SketchEpsilon is the count-distinct accuracy (paper: 1/2).
	SketchEpsilon float64
	// SketchDelta is the count-distinct failure probability
	// (paper: 1/(6n²)).
	SketchDelta float64
	// SketchMinBucket is the bucket size below which sketches are built on
	// demand instead of stored (the paper's Θ(log n) space rule).
	SketchMinBucket int
	// Memo is the per-query memory discipline: how many queriers the
	// pool retains across checkouts and how much scratch (near-cache plus
	// candidate buffers) each may keep. The zero value follows
	// MemoOptions' defaults.
	Memo MemoOptions
	// Obs, when non-nil, registers the draw-loop telemetry bundle
	// (layer="core" counters plus a latency histogram) against the
	// registry and records into it on every draw. A nil registry is
	// contractually invisible: same-seed sample streams, QueryStats
	// counters, and the zero-allocation steady state are bit-identical
	// to a telemetry-free build, and the enabled path stays zero-alloc
	// too (the instruments are preallocated at registration).
	Obs *obs.Registry
}

func (o IndependentOptions) withDefaults(n int) IndependentOptions {
	logn := math.Log2(float64(n) + 1)
	if o.Lambda <= 0 {
		o.Lambda = int(math.Ceil(3 * logn))
		if o.Lambda < 4 {
			o.Lambda = 4
		}
	}
	if o.SigmaBudget <= 0 {
		o.SigmaBudget = int(math.Ceil(2 * logn * logn))
		if o.SigmaBudget < 16 {
			o.SigmaBudget = 16
		}
	}
	if o.SketchEpsilon <= 0 {
		o.SketchEpsilon = 0.5
	}
	if o.SketchDelta <= 0 {
		o.SketchDelta = 1 / (6 * float64(n) * float64(n))
		if o.SketchDelta < 1e-9 {
			o.SketchDelta = 1e-9
		}
	}
	if o.SketchMinBucket <= 0 {
		o.SketchMinBucket = int(math.Ceil(4 * logn))
	}
	return o
}

// Independent is the Section 4 data structure for the r-near neighbor
// independent sampling problem (r-NNIS, Definition 2). On top of the
// rank-sorted buckets of Section 3 it stores a mergeable count-distinct
// sketch per (large) bucket. A query:
//
//  1. merges the sketches of its L buckets into an estimate ŝ_q of the
//     number of distinct colliding points,
//  2. splits the rank permutation Λ into k ≈ 2ŝ_q segments,
//  3. repeatedly samples a segment uniformly at random, retrieves the near
//     points inside it via rank-range reports on the buckets, and accepts
//     the segment with probability λ_q,h / λ,
//  4. on acceptance returns a uniform near point of the segment; every Σ
//     rejected segments, k is halved.
//
// Every accepted point is uniform on B_S(q, r), and because all query
// randomness is drawn fresh per query, outputs of consecutive queries are
// independent (Theorem 2).
//
// Sample and SampleK are safe for concurrent use: the index is read-only
// after construction, per-query scratch comes from a pool, and each query
// draws its randomness from a dedicated stream split off the seed by an
// atomic counter. Steady-state queries perform zero heap allocations.
type Independent[P any] struct {
	base     *rankedBase[P]
	opts     IndependentOptions
	skFamily *sketch.Family
	// sketches[i][key] is the stored sketch of bucket key in table i; small
	// buckets have no entry and are sketched on demand.
	sketches []map[uint64]*sketch.Distinct
	maxK     int
	met      *obs.QueryMetrics
}

// NewIndependent builds the Section 4 structure.
func NewIndependent[P any](space Space[P], family lsh.Family[P], params lsh.Params, points []P, radius float64, opts IndependentOptions, seed uint64) (*Independent[P], error) {
	src := rng.New(seed)
	base, err := newRankedBase(space, family, params, points, radius, opts.Memo, src)
	if err != nil {
		return nil, err
	}
	n := len(points)
	opts = opts.withDefaults(n)
	skFamily, err := sketch.NewFamily(sketch.Params{Epsilon: opts.SketchEpsilon, Delta: opts.SketchDelta}, src)
	if err != nil {
		return nil, err
	}
	d := &Independent[P]{
		base:     base,
		opts:     opts,
		skFamily: skFamily,
		sketches: make([]map[uint64]*sketch.Distinct, params.L),
		maxK:     nextPow2(n),
		met:      obs.NewQueryMetrics(opts.Obs, "core"),
	}
	for i := range d.sketches {
		m := make(map[uint64]*sketch.Distinct)
		for key, bucket := range base.tables[i].buckets {
			if bucket.Len() >= opts.SketchMinBucket {
				m[key] = skFamily.Sketch(bucket.IDs())
			}
		}
		d.sketches[i] = m
	}
	return d, nil
}

// nextPow2 returns the smallest power of two >= n (and 1 for n <= 1),
// via the bit length of n-1 instead of a doubling loop.
//
//fairnn:noalloc
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// N returns the number of indexed points.
func (d *Independent[P]) N() int { return d.base.N() }

// Size returns the number of indexed points (the Sampler contract).
func (d *Independent[P]) Size() int { return d.base.N() }

// Radius returns the threshold r.
func (d *Independent[P]) Radius() float64 { return d.base.Radius() }

// Params returns the LSH parameters in use.
func (d *Independent[P]) Params() lsh.Params { return d.base.Params() }

// Options returns the resolved tuning constants.
func (d *Independent[P]) Options() IndependentOptions { return d.opts }

// Point returns the indexed point with the given id.
func (d *Independent[P]) Point(id int32) P { return d.base.Point(id) }

// RetainedScratchBytes reports the backing-array footprint of the pooled
// per-query scratch this structure currently pins between queries.
func (d *Independent[P]) RetainedScratchBytes() int { return d.base.RetainedScratchBytes() }

// RetainedQueriers reports how many queriers the pool currently holds.
func (d *Independent[P]) RetainedQueriers() int { return d.base.RetainedQueriers() }

// estimateCandidates merges the count-distinct sketches of q's buckets and
// returns ŝ_q (step 1 of the query). The bucket keys resolved by
// rankedBase.resolve are threaded through the querier, so no table
// re-hashes the query; the querier's sketch is reset and reused, so the
// merge allocates nothing in steady state. Small buckets contribute their
// ids directly — equivalent to merging their on-demand sketches. A sketch
// depends only on the set of values added, so those ids are gathered in
// the candidate scratch (free until the rejection loop) and deduplicated
// first, so each distinct id is hashed once per sketch row, not once per
// table. sketch.Distinct.AddIDs then fills one row at a time, its
// candidate buffer kept in the querier's scratch (qr.skBuf).
//
// With no stored sketch merged and fewer than t distinct ids, the sketch
// is skipped: every row would hold all d hashed ids (rng.PairwiseHash is
// injective on ids), so Estimate would return d exactly.
//
//fairnn:noalloc
func (d *Independent[P]) estimateCandidates(qr *querier, st *QueryStats) float64 {
	if qr.counter == nil {
		qr.counter = d.skFamily.NewSketch()
	} else {
		qr.counter.Reset()
	}
	acc := qr.counter
	merged := false
	ids := qr.cand[:0]
	for i, bucket := range qr.buckets {
		if bucket == nil || bucket.Len() == 0 {
			continue
		}
		if sk := d.sketches[i][qr.keys[i]]; sk != nil {
			// Stored sketch: merge (cost linear in sketch size).
			if err := acc.Merge(sk); err != nil {
				panic("core: sketch family mismatch (internal invariant)")
			}
			merged = true
			continue
		}
		// Small bucket: sketch on demand.
		ids = append(ids, bucket.IDs()...)
	}
	qr.cand = ids[:0]
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var est float64
	if !merged && len(ids) < d.skFamily.Capacity() {
		est = float64(len(ids)) // 0 when q collides with no bucket
	} else {
		qr.skBuf = acc.AddIDs(ids, qr.skBuf)
		est = acc.Estimate()
	}
	if st != nil {
		st.SketchEstimate = est
	}
	return est
}

// segmentNear collects the distinct near points of q whose rank lies in
// [lo, hi) (step 3.b). The candidate buffer lives in the querier and is
// recycled across rounds; candidates are distance-tested through the
// epoch-stamped near-cache, so a point revisited by a later round (or a
// later loop of SampleK) is never re-scored.
//
// Two segment-report strategies, chosen adaptively: initially each round
// issues L per-bucket rank-range reports and deduplicates by sorting
// (cheap for the handful of rounds a lucky query needs). Every round's
// cost is metered into qr.rangeWork; once the cumulative total exceeds
// the one-time merge cost, the L buckets are k-way-merged into one
// deduplicated (rank, id) array and every subsequent round becomes a
// single binary search plus a contiguous scan. The merged view survives
// until the next resolve, so all k loops of a SampleK share it.
//
//fairnn:noalloc
func (d *Independent[P]) segmentNear(q P, qr *querier, lo, hi int32, st *QueryStats) []int32 {
	if !qr.isMerged && qr.rangeWork >= qr.mergeCost {
		d.base.materializeMerged(qr, st)
	}
	if qr.isMerged {
		// Filter inline in the same pass as the segment scan (collecting
		// first would only add a second pass).
		ranks := qr.mergedRanks
		kept := qr.cand[:0]
		for i := rank.SearchRanks(ranks, lo); i < len(ranks) && ranks[i] < hi; i++ {
			st.point()
			if id := qr.mergedIDs[i]; d.base.nearCached(q, qr, id, st) {
				kept = append(kept, id)
			}
		}
		qr.cand = kept[:0]
		return kept
	}
	cands := qr.cand[:0]
	work := 0
	for _, bucket := range qr.buckets {
		if bucket == nil {
			continue
		}
		work++ // one binary search per bucket
		before := len(cands)
		cands = bucket.RangeReport(lo, hi, cands)
		st.points(len(cands) - before)
	}
	qr.rangeWork += work + len(cands)
	qr.cand = cands[:0]
	if len(cands) == 0 {
		return cands
	}
	// Deduplicate ids that occur in several buckets.
	slices.Sort(cands)
	cands = slices.Compact(cands)
	// Keep the near ones.
	return d.base.keepNear(q, qr, cands, st)
}

// Sample returns a uniform, independent sample from B_S(q, r), or ok=false
// when no near point collides with q (or the rejection budget is exhausted,
// a probability-≤δ event under the paper's constants).
//
//fairnn:noalloc
func (d *Independent[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	id, err := d.SampleContext(context.Background(), q, st)
	return id, err == nil
}

// SampleContext is the one query entry sequence (Sample delegates here
// with context.Background(), so the two entry points cannot diverge):
// the rejection loop polls ctx.Err() every ctxCheckRounds rounds, so a
// query spinning under deadline pressure returns ctx's error within one
// check interval. A failed (but uncanceled) query returns ErrNoSample.
// The poll draws no randomness and the Background path allocates
// nothing, so Sample's draw order, output and zero-allocation steady
// state are unchanged.
//
//fairnn:noalloc
func (d *Independent[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	d.base.resolve(q, qr, st)
	est := d.estimateCandidates(qr, st)
	id, ok := d.sampleResolved(ctx, q, qr, est, st)
	return sampleCtxResult(ctx, id, ok)
}

// Samples returns an unbounded stream of independent uniform samples from
// B_S(q, r). The query is resolved and its candidate count estimated once
// per stream; every yielded id costs one rejection loop on the shared
// plan (exactly the SampleK amortization, without a bounded output
// buffer). The stream ends when the consumer breaks, when ctx is done
// (yielding ctx.Err() once), or when a draw fails (yielding ErrNoSample).
func (d *Independent[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return func(yield func(int32, error) bool) {
		qr := d.base.getQuerier()
		defer d.base.putQuerier(qr)
		d.base.resolve(q, qr, nil)
		est := d.estimateCandidates(qr, nil)
		for {
			id, ok := d.sampleResolved(ctx, q, qr, est, nil)
			id, err := sampleCtxResult(ctx, id, ok)
			if err != nil {
				yield(0, err)
				return
			}
			if !yield(id, nil) {
				return
			}
		}
	}
}

// sampleResolved is the telemetry choke point around drawResolved: with
// no registry configured it is a tail call (the disabled-telemetry
// contract — not one extra instruction of timing or counting on the
// plain path); with one, it times the draw and records the rejection-
// loop counter deltas. When the caller passed no QueryStats the querier's
// scratch record collects the deltas, so metrics never change whether
// the draw loop sees a stats sink — counter writes are observational
// and draw no randomness, keeping same-seed streams bit-identical.
//
//fairnn:noalloc
func (d *Independent[P]) sampleResolved(ctx context.Context, q P, qr *querier, est float64, st *QueryStats) (id int32, ok bool) {
	m := d.met
	if m == nil {
		return d.drawResolved(ctx, q, qr, est, st)
	}
	if st == nil {
		qr.mstats = QueryStats{}
		st = &qr.mstats
	}
	preRounds, preHits := st.Rounds, st.ScoreCacheHits
	preBatch, preEvals := st.BatchScored, st.ScoreEvals
	t0 := time.Now()
	id, ok = d.drawResolved(ctx, q, qr, est, st)
	m.ObserveDraw(time.Since(t0), ok, st.Rounds-preRounds, st.ScoreCacheHits-preHits,
		st.BatchScored-preBatch, st.ScoreEvals-preEvals, false)
	return id, ok
}

// drawResolved runs steps 2–4 of the query (segment search + rejection)
// against an already-resolved querier. Each call draws fresh randomness
// from the querier's stream, so repeated calls yield independent samples.
// The loop polls ctx.Err() every ctxCheckRounds rounds and exits with
// ok=false when the context is done (callers that care distinguish the
// two via sampleCtxResult); the poll draws no randomness, so the output
// stream under an uncanceled context is unchanged.
//
//fairnn:noalloc
func (d *Independent[P]) drawResolved(ctx context.Context, q P, qr *querier, est float64, st *QueryStats) (id int32, ok bool) {
	if est <= 0 {
		st.found(false)
		return 0, false
	}
	n := int64(d.base.N())
	k := nextPow2(int(math.Ceil(2 * est)))
	if k > d.maxK {
		k = d.maxK
	}
	lambda := float64(d.opts.Lambda)
	sigmaFail := 0
	for rounds := 0; k >= 1; {
		st.round()
		rounds++
		if rounds%ctxCheckRounds == 0 && ctx.Err() != nil {
			st.found(false)
			return 0, false
		}
		h := int64(qr.rng.Intn(k))
		lo := int32(h * n / int64(k))
		hi := int32((h + 1) * n / int64(k))
		nearIDs := d.segmentNear(q, qr, lo, hi, st)
		lqh := len(nearIDs)
		sigmaFail++
		if sigmaFail >= d.opts.SigmaBudget {
			k /= 2
			sigmaFail = 0
		}
		if lqh == 0 {
			continue
		}
		p := float64(lqh) / lambda
		if p > 1 {
			st.clamp()
			p = 1
		}
		if qr.rng.Bernoulli(p) {
			if st != nil {
				st.FinalK = k
			}
			st.found(true)
			return nearIDs[qr.rng.Intn(lqh)], true
		}
	}
	st.found(false)
	return 0, false
}

// SampleK returns k independent with-replacement samples from B_S(q, r)
// (repeated independent queries; Definition 2 makes them independent). The
// query is resolved and the candidate count estimated once — both are
// deterministic given (structure, query) — and the k rejection loops share
// the resolved buckets, the merged candidate cursor, and the near-cache,
// so hashing, merging, and every distinct distance evaluation are paid
// once, not k times.
func (d *Independent[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return d.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero and grown
// as needed): callers drawing many batches amortize the output buffer and
// reach a zero-allocation steady state. The returned slice must be
// consumed (or copied) before dst is reused.
//
//fairnn:noalloc
func (d *Independent[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	d.base.resolve(q, qr, st)
	est := d.estimateCandidates(qr, st)
	for i := 0; i < k; i++ {
		if id, ok := d.sampleResolved(context.Background(), q, qr, est, st); ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// StoredSketches returns how many buckets carry a precomputed sketch;
// exposed for the space-accounting experiment.
func (d *Independent[P]) StoredSketches() (buckets, words int) {
	for _, m := range d.sketches {
		for _, sk := range m {
			buckets++
			words += sk.MemoryWords()
		}
	}
	return
}
