package core

// Tests for Section 4 scoring over a distance space and for the kernel
// tiers under both samplers. Section 4 scores one candidate at a time
// through the near-cache (keepNear and the merged cursor both call
// nearCached), and its ℓ2 stream is pinned. The Section 5 sampler's
// blocked existence scan batches its scores, and batching changes cost,
// never output. Across kernel tiers the streams must either be
// bit-identical or — where a last-bit FP divergence flips a verdict —
// stay uniform on the ball (the chi-squared oracle the repo uses for
// every stream-affecting change).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/stats"
	"fairnn/internal/vector"
)

// euclideanBall adapts the planted inner-product workload to the ℓ2
// space: unit vectors satisfy ‖p−q‖² = 2−2⟨p,q⟩, so the radius-r ball at
// r = √(2−2α) is exactly the planted ⟨p,q⟩ ≥ α ball.
func euclideanBall(t *testing.T, seed uint64) ([]vector.Vec, vector.Vec, float64) {
	t.Helper()
	w := plantedWorkload(t, 400, 24, 60, 0.8, 0.3, seed)
	radius := 0.632455532033676 // √(2−2·0.8), strictly separating ball and band
	return w.Points, w.Query, radius
}

// newEuclideanIndependent builds the Section 4 sampler over the ℓ2 space.
func newEuclideanIndependent(t *testing.T, seed uint64) (*Independent[vector.Vec], vector.Vec) {
	t.Helper()
	pts, q, radius := euclideanBall(t, 307)
	d, err := NewIndependent[vector.Vec](Euclidean(), lsh.Euclidean{Dim: len(q), W: 2 * radius}, lsh.Params{K: 2, L: 12}, pts, radius, IndependentOptions{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestEuclideanStreamDigestPinned pins the Section 4 sampler's same-seed
// output and work counters over a distance space: Sample ids over a mix
// of planted, band and random queries, SampleK ids of the planted query,
// and the summed counters, with the number of calls that merged their
// candidate cursor: each call starts on per-bucket range reports and
// nearly all switch to the merged cursor, so both segment-report
// strategies are covered. The build goes through Euclidean(), so the
// near test is the sqrt-free ScoreSq comparison against r². No Section 4
// path scores through a batched kernel, so BatchScored must stay 0.
func TestEuclideanStreamDigestPinned(t *testing.T) {
	w := plantedWorkload(t, 400, 24, 60, 0.8, 0.3, 307)
	radius := 0.632455532033676 // √(2−2·0.8), as in euclideanBall
	d, err := NewIndependent[vector.Vec](Euclidean(), lsh.Euclidean{Dim: len(w.Query), W: 2 * radius}, lsh.Params{K: 2, L: 12}, w.Points, radius, IndependentOptions{}, 347)
	if err != nil {
		t.Fatal(err)
	}
	queries := []vector.Vec{w.Query}
	for _, id := range w.BallIDs[:4] {
		queries = append(queries, w.Points[id])
	}
	for _, id := range w.MidIDs[:3] {
		queries = append(queries, w.Points[id])
	}
	r := rng.New(349)
	for len(queries) < 10 {
		queries = append(queries, vector.RandomUnit(r, len(w.Query)))
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var sum QueryStats
	merged := 0
	count := func(st QueryStats) {
		sum.add(st)
		if st.CursorMerged {
			merged++
		}
	}
	for i := 0; i < 400; i++ {
		var st QueryStats
		id, ok := d.Sample(queries[i%len(queries)], &st)
		if !ok {
			id = -1
		}
		put(int64(id))
		count(st)
	}
	for i := 0; i < 10; i++ {
		var st QueryStats
		for _, id := range d.SampleK(w.Query, 20, &st) {
			put(int64(id))
		}
		count(st)
	}
	for _, c := range []int{sum.BucketsScanned, sum.PointsInspected, sum.ScoreEvals,
		sum.ScoreCacheHits, sum.MemoProbes, sum.Rounds, merged} {
		put(int64(c))
	}
	t.Logf("merged %d, batched %d of %d score evals", merged, sum.BatchScored, sum.ScoreEvals)
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "61ec95b9cc4bdab3"; got != want {
		t.Errorf("ℓ2 stream digest %s, want %s", got, want)
	}
	if sum.BatchScored != 0 {
		t.Errorf("BatchScored = %d, want 0", sum.BatchScored)
	}
}

// TestKeepNearMatchesNearCached checks both memoized Section 4 filters
// against the predicate they cache: keepNear (the block filter of the
// per-bucket segment report) and per-candidate nearCached must each keep
// exactly the ids that nearFn, called directly with no memo, accepts,
// with identical counters, for blocks from one id to the whole point
// set. Each block runs four passes: a fresh epoch, a repeat answered
// from the memo, a new epoch (the next getQuerier) under a different
// query, where any verdict left over from the first epoch would be
// wrong, and a pass after trim(0) has freed the table.
func TestKeepNearMatchesNearCached(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		a, q := newEuclideanIndependent(t, 313)
		b, _ := newEuclideanIndependent(t, 313)
		q2 := a.Point(int32(a.N() - 1))
		for _, block := range []int{1, 8, 64, 400} {
			ids := make([]int32, 0, block)
			for id := 0; id < block && id < a.N(); id++ {
				ids = append(ids, int32(id))
			}
			qa, qb := a.base.getQuerier(), b.base.getQuerier()
			var sta, stb QueryStats
			// pass filters ids for q both ways and checks them against
			// nearFn; fresh passes must miss the memo on every id.
			pass := func(name string, q vector.Vec, fresh bool) {
				t.Helper()
				var direct []int32
				for _, id := range ids {
					if a.base.nearFn(q, a.Point(id)) {
						direct = append(direct, id)
					}
				}
				hits := sta.ScoreCacheHits
				got := a.base.keepNear(q, qa, slices.Clone(ids), &sta)
				var per []int32
				for _, id := range ids {
					if b.base.nearCached(q, qb, id, &stb) {
						per = append(per, id)
					}
				}
				if !slices.Equal(got, direct) {
					t.Fatalf("block %d %s: keepNear %v, nearFn %v", block, name, got, direct)
				}
				if !slices.Equal(per, direct) {
					t.Fatalf("block %d %s: nearCached %v, nearFn %v", block, name, per, direct)
				}
				if sta.ScoreEvals != stb.ScoreEvals || sta.ScoreCacheHits != stb.ScoreCacheHits || sta.MemoProbes != stb.MemoProbes {
					t.Fatalf("block %d %s counters diverged: keepNear %+v, nearCached %+v", block, name, sta, stb)
				}
				if fresh && sta.ScoreCacheHits != hits {
					t.Fatalf("block %d %s: %d memo hits, want 0", block, name, sta.ScoreCacheHits-hits)
				}
			}
			pass("first", q, true)
			pass("repeat", q, false)
			a.base.putQuerier(qa)
			b.base.putQuerier(qb)
			if qa, qb = a.base.getQuerier(), b.base.getQuerier(); qa.near.retainedBytes() == 0 {
				t.Fatalf("block %d: the pool handed back a querier without its memo", block)
			}
			pass("new epoch", q2, true)
			qa.trim(0)
			qb.trim(0)
			if qa.near.retainedBytes() != 0 {
				t.Fatalf("block %d: trim(0) kept a %d B memo", block, qa.near.retainedBytes())
			}
			pass("after trim", q2, true)
			a.base.putQuerier(qa)
			b.base.putQuerier(qb)
		}
	})
}

// TestAccelVsPortableStreams compares whole sample streams across kernel
// tiers. The tiers' FP reduction orders differ, so bit-equality of the
// streams is expected but not guaranteed; when they diverge, the
// accelerated stream must still be uniform on the sampled support
// (p ≥ 1e-4 under the chi-squared oracle), which is the actual
// correctness contract of the sampler.
func TestAccelVsPortableStreams(t *testing.T) {
	if !vector.AccelAvailable() {
		t.Skip("accelerated kernels unavailable in this build")
	}
	prev := vector.Accelerated()
	t.Cleanup(func() { vector.SetAccelerated(prev) })

	const draws = 400
	vector.SetAccelerated(false)
	portable, q := newEuclideanIndependent(t, 317)
	portableStream := portable.SampleK(q, draws, nil)

	vector.SetAccelerated(true)
	accel, _ := newEuclideanIndependent(t, 317)
	accelStream := accel.SampleK(q, draws, nil)

	if slices.Equal(portableStream, accelStream) {
		return // bit-identical across tiers — the strong outcome
	}
	t.Logf("streams diverged across kernel tiers; falling back to the chi-squared oracle")
	freq := stats.NewFrequency()
	const reps = 20000
	for i := 0; i < reps; i++ {
		id, ok := accel.Sample(q, nil)
		if !ok {
			t.Fatal("accelerated sampler failed on the planted ball")
		}
		freq.Observe(id)
	}
	// The support of the portable stream is the recalled ball of this
	// build (every recalled near point appears with overwhelming
	// probability in 20k draws); the accelerated sampler must be uniform
	// over it.
	support := slices.Clone(portableStream)
	for i := 0; i < reps; i++ {
		id, ok := portable.Sample(q, nil)
		if !ok {
			t.Fatal("portable sampler failed on the planted ball")
		}
		support = append(support, id)
	}
	slices.Sort(support)
	domain := slices.Compact(support)
	if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
		t.Errorf("accelerated stream not uniform on the recalled ball: p = %v", p)
	}
}

// TestFilterAccelVsPortableStreams is the Section 5 analogue: the blocked
// existence scan plus batched signing must reproduce the portable stream
// across kernel tiers, or stay uniform on the recalled ball (which the
// filter structure exposes exactly via RecalledBall).
func TestFilterAccelVsPortableStreams(t *testing.T) {
	if !vector.AccelAvailable() {
		t.Skip("accelerated kernels unavailable in this build")
	}
	prev := vector.Accelerated()
	t.Cleanup(func() { vector.SetAccelerated(prev) })

	w := plantedWorkload(t, 300, 16, 40, 0.8, 0.5, 331)
	mk := func() *FilterIndependent {
		fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 337)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	const draws = 400
	vector.SetAccelerated(false)
	portable := mk()
	portableStream := portable.SampleK(w.Query, draws, nil)

	vector.SetAccelerated(true)
	accel := mk()
	accelStream := accel.SampleK(w.Query, draws, nil)

	if slices.Equal(portableStream, accelStream) {
		return
	}
	t.Logf("filter streams diverged across kernel tiers; falling back to the chi-squared oracle")
	domain := accel.RecalledBall(w.Query, nil)
	if len(domain) == 0 {
		t.Fatal("empty recalled ball")
	}
	freq := stats.NewFrequency()
	for i := 0; i < 20000; i++ {
		id, ok := accel.Sample(w.Query, nil)
		if !ok {
			t.Fatal("accelerated filter sampler failed on the planted ball")
		}
		freq.Observe(id)
	}
	if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
		t.Errorf("accelerated filter stream not uniform on the recalled ball: p = %v", p)
	}
}
