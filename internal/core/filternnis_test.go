package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"fairnn/internal/dataset"
	"fairnn/internal/rng"
	"fairnn/internal/stats"
	"fairnn/internal/vector"
)

func plantedWorkload(t *testing.T, n, ballSize, midSize int, alpha, beta float64, seed uint64) dataset.PlantedBall {
	t.Helper()
	return dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: n, Dim: 32, Alpha: alpha, Beta: beta,
		BallSize: ballSize, MidSize: midSize, Seed: seed,
	})
}

func TestFilterIndependentOnlyNearReturned(t *testing.T) {
	w := plantedWorkload(t, 300, 10, 40, 0.8, 0.5, 101)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 103)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fi.SampleK(w.Query, 300, nil) {
		if ip := vector.Dot(w.Query, fi.Point(id)); ip < 0.8 {
			t.Fatalf("returned point with inner product %v < α", ip)
		}
	}
}

func TestFilterIndependentUniformOverRecalledBall(t *testing.T) {
	// Theorem 4: every near point present in the selected buckets is
	// returned with equal probability. The recalled ball is deterministic
	// per (structure, query), so we test uniformity over it directly.
	w := plantedWorkload(t, 300, 12, 30, 0.8, 0.5, 107)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 109)
	if err != nil {
		t.Fatal(err)
	}
	recalled := fi.RecalledBall(w.Query, nil)
	if len(recalled) < len(w.BallIDs)*3/4 {
		t.Fatalf("recalled only %d of %d near points", len(recalled), len(w.BallIDs))
	}
	freq := stats.NewFrequency()
	const reps = 8000
	ids := fi.SampleK(w.Query, reps, nil)
	if len(ids) != reps {
		t.Fatalf("sampled %d of %d despite recalled ball", len(ids), reps)
	}
	for _, id := range ids {
		freq.Observe(id)
	}
	if tv := freq.TVFromUniform(recalled); tv > 0.06 {
		t.Errorf("TV over recalled ball = %v, want < 0.06", tv)
	}
	if _, p := freq.ChiSquareUniform(recalled); p < 1e-4 {
		t.Errorf("chi-square rejects uniformity: p = %v", p)
	}
}

func TestFilterIndependentConsecutiveIndependence(t *testing.T) {
	w := plantedWorkload(t, 200, 4, 20, 0.8, 0.5, 113)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 127)
	if err != nil {
		t.Fatal(err)
	}
	recalled := fi.RecalledBall(w.Query, nil)
	if len(recalled) != 4 {
		t.Skipf("recalled %d of 4; need full recall for the pair test", len(recalled))
	}
	pos := map[int32]int32{}
	for i, id := range recalled {
		pos[id] = int32(i)
	}
	joint := stats.NewFrequency()
	prev := int32(-1)
	const reps = 20000
	ids := fi.SampleK(w.Query, reps, nil)
	if len(ids) != reps {
		t.Fatalf("sampled %d of %d", len(ids), reps)
	}
	for _, id := range ids {
		if prev >= 0 {
			joint.Observe(prev*4 + pos[id])
		}
		prev = pos[id]
	}
	if tv := joint.TVFromUniform(domainInts(16)); tv > 0.05 {
		t.Errorf("joint TV = %v", tv)
	}
}

func TestFilterIndependentNoNearPoint(t *testing.T) {
	// Background-only dataset: no point reaches α = 0.9.
	w := plantedWorkload(t, 150, 0, 10, 0.9, 0.3, 131)
	fi, err := NewFilterIndependent(w.Points, 0.9, 0.3, FilterIndependentOptions{}, 137)
	if err != nil {
		t.Fatal(err)
	}
	var st QueryStats
	if _, ok := fi.Sample(w.Query, &st); ok {
		t.Fatal("sampled a point from an empty ball")
	}
	if st.Found {
		t.Error("stats claim Found")
	}
}

func TestFilterIndependentQueryNN(t *testing.T) {
	w := plantedWorkload(t, 250, 8, 20, 0.8, 0.5, 139)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 149)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := fi.QueryNN(w.Query, nil)
	if !ok {
		t.Fatal("QueryNN missed a planted ball of size 8")
	}
	// QueryNN solves (α, β)-NN: the returned point need only be β-near.
	if ip := vector.Dot(w.Query, fi.Point(id)); ip < 0.5 {
		t.Errorf("QueryNN returned inner product %v < β", ip)
	}
}

func TestFilterIndependentSampleK(t *testing.T) {
	w := plantedWorkload(t, 200, 6, 10, 0.8, 0.5, 151)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 157)
	if err != nil {
		t.Fatal(err)
	}
	got := fi.SampleK(w.Query, 20, nil)
	if len(got) < 18 {
		t.Errorf("SampleK returned %d of 20", len(got))
	}
}

func TestFilterIndependentRejectsBadParams(t *testing.T) {
	w := plantedWorkload(t, 50, 2, 2, 0.8, 0.5, 163)
	if _, err := NewFilterIndependent(w.Points, 0.5, 0.8, FilterIndependentOptions{}, 1); err == nil {
		t.Error("beta > alpha accepted")
	}
	if _, err := NewFilterIndependent(nil, 0.8, 0.5, FilterIndependentOptions{}, 1); err == nil {
		t.Error("empty points accepted")
	}
}

func TestFenwick(t *testing.T) {
	contents := [][]int32{{1, 2, 3}, {4}, {}, {5, 6}}
	var f fenwick
	f.init(contents)
	if f.total() != 6 {
		t.Fatalf("total = %d", f.total())
	}
	// Every position maps to the right (bucket, offset).
	wantBucket := []int{0, 0, 0, 1, 3, 3}
	wantOffset := []int{0, 1, 2, 0, 0, 1}
	for v := 0; v < 6; v++ {
		b, off := f.find(v)
		if b != wantBucket[v] || off != wantOffset[v] {
			t.Errorf("find(%d) = (%d,%d), want (%d,%d)", v, b, off, wantBucket[v], wantOffset[v])
		}
	}
	f.add(0, -1)
	if f.total() != 5 {
		t.Fatalf("total after removal = %d", f.total())
	}
	b, off := f.find(2)
	if b != 1 || off != 0 {
		t.Errorf("find(2) after removal = (%d,%d), want (1,0)", b, off)
	}
}

func TestFenwickWeightedSelectionUniform(t *testing.T) {
	contents := [][]int32{{0, 0}, {0, 0, 0, 0}, {0, 0}}
	var f fenwick
	f.init(contents)
	counts := make([]int, 3)
	src := newTestRNG()
	const trials = 40000
	for i := 0; i < trials; i++ {
		b, _ := f.find(src.Intn(f.total()))
		counts[b]++
	}
	// Bucket 1 holds half the mass.
	if frac := float64(counts[1]) / trials; frac < 0.47 || frac > 0.53 {
		t.Errorf("bucket 1 fraction %v, want ≈ 0.5", frac)
	}
}

// TestFilterSampleZeroAllocs pins the PR2 satellite fix: the Section 5
// query path routes all scratch (plan, similarity memo, rejection working
// set, bank-query buffers) through a pooled querier, so steady-state
// Sample and SampleKInto allocate nothing.
func TestFilterSampleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are not meaningful")
	}
	w := plantedWorkload(t, 400, 12, 40, 0.8, 0.5, 211)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 213)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 0, 16)
	for i := 0; i < 30; i++ {
		fi.Sample(w.Query, nil)
		dst = fi.SampleKInto(w.Query, 8, dst, nil)
	}
	if n := testing.AllocsPerRun(100, func() { fi.Sample(w.Query, nil) }); n != 0 {
		t.Errorf("FilterIndependent.Sample allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst = fi.SampleKInto(w.Query, 8, dst, nil) }); n != 0 {
		t.Errorf("FilterIndependent.SampleKInto allocs/op = %v, want 0", n)
	}
}

// TestFilterSimMemoSharedAcrossDraws checks the similarity memo contract:
// across one SampleK, each candidate's inner product is computed at most
// once, so ScoreEvals is bounded by n while cache hits grow with k.
func TestFilterSimMemoSharedAcrossDraws(t *testing.T) {
	w := plantedWorkload(t, 300, 10, 40, 0.8, 0.5, 223)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 227)
	if err != nil {
		t.Fatal(err)
	}
	var st QueryStats
	out := fi.SampleK(w.Query, 50, &st)
	if len(out) == 0 {
		t.Fatal("SampleK found nothing")
	}
	if st.ScoreEvals > fi.N() {
		t.Errorf("SampleK(50) computed %d inner products, want <= n = %d", st.ScoreEvals, fi.N())
	}
	if st.ScoreCacheHits == 0 {
		t.Error("similarity memo recorded no hits across 50 draws")
	}
}

// filterStreamDigest runs a fixed-seed Section 5 workload — 500 Sample
// calls cycling over a dozen queries, one SampleK(50), QueryNN and
// RecalledBall — and returns an FNV-64a hash of every returned id and of
// the summed QueryStats counters.
func filterStreamDigest(t *testing.T) string {
	t.Helper()
	w := plantedWorkload(t, 600, 24, 60, 0.8, 0.5, 307)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 311)
	if err != nil {
		t.Fatal(err)
	}
	queries := []vector.Vec{w.Query}
	for _, id := range w.BallIDs[:5] {
		queries = append(queries, w.Points[id])
	}
	for _, id := range w.MidIDs[:3] {
		queries = append(queries, w.Points[id])
	}
	r := rng.New(313)
	for len(queries) < 12 {
		queries = append(queries, vector.RandomUnit(r, 32))
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var st QueryStats
	for i := 0; i < 500; i++ {
		id, ok := fi.Sample(queries[i%len(queries)], &st)
		if !ok {
			id = -1
		}
		put(int64(id))
	}
	for _, id := range fi.SampleK(w.Query, 50, &st) {
		put(int64(id))
	}
	for _, q := range queries {
		id, ok := fi.QueryNN(q, &st)
		if !ok {
			id = -1
		}
		put(int64(id))
		for _, id := range fi.RecalledBall(q, &st) {
			put(int64(id))
		}
	}
	for _, c := range []int{st.BucketsScanned, st.PointsInspected, st.ScoreEvals, st.BatchScored,
		st.ScoreCacheHits, st.MemoProbes, st.Rounds, st.FilterEvals} {
		put(int64(c))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFilterStreamDigestPinned pins the Section 5 sampler's same-seed
// output and work counters. A change to bucket enumeration, plan order,
// the rejection loop or the counters' charging shows up here; a
// deliberate stream change must re-pin this value behind the chi-squared
// tests above.
func TestFilterStreamDigestPinned(t *testing.T) {
	if got, want := filterStreamDigest(t), "6a4f655a426baca4"; got != want {
		t.Errorf("stream digest %s, want %s", got, want)
	}
}
