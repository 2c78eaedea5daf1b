package core

import (
	"math/bits"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/set"
	"fairnn/internal/stats"
)

func newLineIndependent(t *testing.T, n int, radius float64, seed uint64) *Independent[int] {
	t.Helper()
	d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 1}, lineDataset(n), radius, IndependentOptions{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIndependentUniformSingleBuild(t *testing.T) {
	// Theorem 2: outputs are uniform on the ball using only query-time
	// randomness, so uniformity holds within one build.
	const ballSize = 10
	d := newLineIndependent(t, 64, float64(ballSize-1), 41)
	freq := stats.NewFrequency()
	const reps = 20000
	for i := 0; i < reps; i++ {
		id, ok := d.Sample(0, nil)
		if !ok {
			t.Fatal("query failed with perfect recall")
		}
		if d.Point(id) > ballSize-1 {
			t.Fatalf("far point %d returned", d.Point(id))
		}
		freq.Observe(id)
	}
	domain := domainInts(ballSize)
	if tv := tvUniform(freq, domain); tv > 0.03 {
		t.Errorf("TV = %v, want < 0.03", tv)
	}
	if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
		t.Errorf("chi-square rejects uniformity: p = %v", p)
	}
}

func TestIndependentConsecutiveIndependence(t *testing.T) {
	// Definition 2 property 2: output i is independent of outputs < i.
	const ballSize = 5
	d := newLineIndependent(t, 40, float64(ballSize-1), 43)
	joint := stats.NewFrequency()
	prev := int32(-1)
	const reps = 30000
	for i := 0; i < reps; i++ {
		id, ok := d.Sample(0, nil)
		if !ok {
			t.Fatal("query failed")
		}
		if prev >= 0 {
			joint.Observe(prev*ballSize + id)
		}
		prev = id
	}
	domain := domainInts(ballSize * ballSize)
	if tv := tvUniform(joint, domain); tv > 0.05 {
		t.Errorf("joint TV = %v, want < 0.05", tv)
	}
}

func TestIndependentAcrossQueriesUniform(t *testing.T) {
	// Different query points must each see uniform outputs (this is where
	// the Appendix A perturbation fails and Section 4 succeeds).
	d := newLineIndependent(t, 64, 4, 47)
	for _, q := range []int{0, 10, 31} {
		freq := stats.NewFrequency()
		var ball []int32
		for id, p := range lineDataset(64) {
			if p >= q-4 && p <= q+4 {
				ball = append(ball, int32(id))
			}
		}
		for i := 0; i < 8000; i++ {
			id, ok := d.Sample(q, nil)
			if !ok {
				t.Fatalf("query %d failed", q)
			}
			freq.Observe(id)
		}
		if tv := tvUniform(freq, ball); tv > 0.05 {
			t.Errorf("query %d: TV = %v", q, tv)
		}
	}
}

func TestIndependentInterleavedQueriesStayIndependent(t *testing.T) {
	// Alternating two queries must not bias either output distribution
	// (the failure mode of rank perturbation with overlapping balls).
	d := newLineIndependent(t, 48, 5, 53)
	freqA, freqB := stats.NewFrequency(), stats.NewFrequency()
	var ballA, ballB []int32
	for id, p := range lineDataset(48) {
		if p <= 5 { // ball of query 0 at radius 5 is [0, 5]
			ballA = append(ballA, int32(id))
		}
		if p <= 8 { // ball of query 3 at radius 5 is [0, 8]
			ballB = append(ballB, int32(id))
		}
	}
	const reps = 12000
	for i := 0; i < reps; i++ {
		if idA, ok := d.Sample(0, nil); ok {
			freqA.Observe(idA)
		} else {
			t.Fatal("query A failed")
		}
		if idB, ok := d.Sample(3, nil); ok {
			freqB.Observe(idB)
		} else {
			t.Fatal("query B failed")
		}
	}
	if tv := tvUniform(freqA, ballA); tv > 0.05 {
		t.Errorf("interleaved query A TV = %v", tv)
	}
	if tv := tvUniform(freqB, ballB); tv > 0.05 {
		t.Errorf("interleaved query B TV = %v", tv)
	}
}

func TestIndependentNoNeighbors(t *testing.T) {
	d := newLineIndependent(t, 20, 2, 59)
	var st QueryStats
	if _, ok := d.Sample(1000, &st); ok {
		t.Fatal("found a neighbor where none exists")
	}
}

func TestIndependentSketchEstimateRecorded(t *testing.T) {
	d := newLineIndependent(t, 64, 5, 61)
	var st QueryStats
	if _, ok := d.Sample(0, &st); !ok {
		t.Fatal("query failed")
	}
	// With the allCollide family every point is a candidate; the estimate
	// must be within the sketch's ±50% of 64.
	if st.SketchEstimate < 32 || st.SketchEstimate > 96 {
		t.Errorf("sketch estimate %v for 64 candidates", st.SketchEstimate)
	}
	if st.Rounds == 0 {
		t.Error("no rounds recorded")
	}
	if st.FinalK == 0 {
		t.Error("no final k recorded")
	}

	// A query that collides with no bucket records ŝ = 0 instead of
	// leaving the previous query's estimate in a reused record.
	sd, err := NewIndependent[int](intSpace(), stripedLine{}, lsh.Params{K: 1, L: 8}, lineDataset(1024), 3,
		IndependentOptions{SketchMinBucket: 16}, 401)
	if err != nil {
		t.Fatal(err)
	}
	st = QueryStats{}
	if _, ok := sd.Sample(100, &st); !ok || st.SketchEstimate == 0 {
		t.Fatalf("near query: ok=%v, estimate %v", ok, st.SketchEstimate)
	}
	if _, ok := sd.Sample(1<<40, &st); ok {
		t.Fatal("far query returned a point")
	}
	if st.SketchEstimate != 0 {
		t.Errorf("far query left estimate %v, want 0", st.SketchEstimate)
	}
}

func TestIndependentSampleK(t *testing.T) {
	d := newLineIndependent(t, 32, 3, 67)
	got := d.SampleK(0, 10, nil)
	if len(got) != 10 {
		t.Fatalf("got %d samples, want 10", len(got))
	}
	for _, id := range got {
		if d.Point(id) > 3 {
			t.Fatalf("far point %d", d.Point(id))
		}
	}
}

func TestIndependentWithRealLSH(t *testing.T) {
	// 1-bit MinHash over clustered sets: outputs must be near points and
	// roughly uniform over the ball.
	r := rng.New(71)
	base := set.Range(1, 40)
	var points []set.Set
	// 12 near points: remove 4 random elements each (J = 36/40 = 0.9).
	for i := 0; i < 12; i++ {
		perm := r.Perm(40)
		drop := map[uint32]bool{}
		for _, idx := range perm[:4] {
			drop[uint32(idx+1)] = true
		}
		var items []uint32
		for _, v := range base {
			if !drop[v] {
				items = append(items, v)
			}
		}
		points = append(points, set.FromSlice(items))
	}
	// 120 far points.
	for i := 0; i < 120; i++ {
		items := make([]uint32, 20)
		for j := range items {
			items[j] = uint32(1000 + r.Intn(8000))
		}
		points = append(points, set.FromSlice(items))
	}
	k := lsh.ChooseK[set.Set](lsh.OneBitMinHash{}, len(points), 0.1, 5)
	l := lsh.ChooseL[set.Set](lsh.OneBitMinHash{}, k, 0.85, 0.999)
	d, err := NewIndependent[set.Set](Jaccard(), lsh.OneBitMinHash{}, lsh.Params{K: k, L: l}, points, 0.85, IndependentOptions{}, 73)
	if err != nil {
		t.Fatal(err)
	}
	freq := stats.NewFrequency()
	misses := 0
	const reps = 4000
	for i := 0; i < reps; i++ {
		id, ok := d.Sample(base, nil)
		if !ok {
			misses++
			continue
		}
		if sim := set.Jaccard(base, d.Point(id)); sim < 0.85 {
			t.Fatalf("returned similarity %v < 0.85", sim)
		}
		freq.Observe(id)
	}
	if misses > reps/100 {
		t.Errorf("%d misses out of %d", misses, reps)
	}
	if tv := tvUniform(freq, domainInts(12)); tv > 0.08 {
		t.Errorf("TV over ball = %v", tv)
	}
}

func TestIndependentOptionsDefaults(t *testing.T) {
	o := IndependentOptions{}.withDefaults(1024)
	if o.Lambda <= 0 || o.SigmaBudget <= 0 || o.SketchMinBucket <= 0 {
		t.Fatalf("defaults not resolved: %+v", o)
	}
	if o.SketchEpsilon != 0.5 {
		t.Errorf("epsilon default %v", o.SketchEpsilon)
	}
	if o.SketchDelta <= 0 || o.SketchDelta >= 1 {
		t.Errorf("delta default %v", o.SketchDelta)
	}
}

func TestIndependentStoredSketches(t *testing.T) {
	// With the allCollide family there is one huge bucket per table that
	// must carry a stored sketch.
	d := newLineIndependent(t, 256, 5, 79)
	buckets, words := d.StoredSketches()
	if buckets == 0 || words == 0 {
		t.Errorf("expected stored sketches for large buckets: %d buckets, %d words", buckets, words)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		// Degenerate inputs clamp to 1 (the loop-based original returned
		// 1 for n <= 1 because k started at 1).
		0: 1, -5: 1, 1: 1,
		// Small values and exact powers of two.
		2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024,
		1 << 10: 1 << 10, 1<<10 + 1: 1 << 11,
	}
	if bits.UintSize == 64 {
		// MaxInt32-adjacent: the id space is int32, n never exceeds it.
		// 2^31 only fits in a 64-bit int, so build it at runtime to keep
		// the package compiling on 32-bit platforms.
		shift := 31
		big := 1 << shift
		cases[big-2] = big // 2^31 - 2 rounds up
		cases[big-1] = big // MaxInt32
		cases[big] = big   // exact power of two
	}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
