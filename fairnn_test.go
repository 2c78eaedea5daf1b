package fairnn_test

import (
	"math"
	"testing"

	"fairnn"
	"fairnn/internal/dataset"
)

// smallSets is a tiny clustered workload for façade tests.
func smallSets() ([]fairnn.Set, fairnn.Set) {
	var sets []fairnn.Set
	// A cluster of 6 sets close to the query.
	base := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sets = append(sets, fairnn.SetFromSlice(base))
	for i := 0; i < 5; i++ {
		items := append([]uint32(nil), base...)
		items[i] = 100 + uint32(i) // swap one element out
		sets = append(sets, fairnn.SetFromSlice(items))
	}
	// 30 far sets.
	for i := 0; i < 30; i++ {
		lo := uint32(1000 + 20*i)
		var items []uint32
		for v := lo; v < lo+10; v++ {
			items = append(items, v)
		}
		sets = append(sets, fairnn.SetFromSlice(items))
	}
	return sets, fairnn.SetFromSlice(base)
}

func TestFacadeSetSampler(t *testing.T) {
	sets, q := smallSets()
	built, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s := built.(*fairnn.SetSampler)
	id, ok := s.Sample(q, nil)
	if !ok {
		t.Fatal("no sample")
	}
	if sim := fairnn.Jaccard(q, s.Point(id)); sim < 0.6 {
		t.Fatalf("similarity %v below radius", sim)
	}
	if got := s.SampleK(q, 3, nil); len(got) != 3 {
		t.Fatalf("SampleK returned %d", len(got))
	}
}

func TestFacadeSetIndependentUniform(t *testing.T) {
	sets, q := smallSets()
	d, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int32]int{}
	const reps = 6000
	for i := 0; i < reps; i++ {
		id, ok := d.Sample(q, nil)
		if !ok {
			t.Fatal("no sample")
		}
		counts[id]++
	}
	if len(counts) != 6 {
		t.Fatalf("support size %d, want the 6-set cluster", len(counts))
	}
	for id, c := range counts {
		p := float64(c) / reps
		if math.Abs(p-1.0/6.0) > 0.035 {
			t.Errorf("point %d has probability %v, want ~1/6", id, p)
		}
	}
}

func TestFacadeStandardAndExactAgreeOnBall(t *testing.T) {
	sets, q := smallSets()
	std, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Standard), fairnn.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Exact), fairnn.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ball := exact.(*fairnn.SetExact).Ball(q, nil)
	if len(ball) != 6 {
		t.Fatalf("exact ball size %d, want 6", len(ball))
	}
	recalled := std.(*fairnn.SetStandard).RecalledBall(q, nil)
	if len(recalled) < 5 {
		t.Errorf("standard structure recalled only %d of 6", len(recalled))
	}
}

func TestFacadeManualParamsRespected(t *testing.T) {
	sets, _ := smallSets()
	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNS), fairnn.WithParams(4, 7), fairnn.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if p := s.(*fairnn.SetSampler).Params(); p.K != 4 || p.L != 7 {
		t.Fatalf("params %+v, want K=4 L=7", p)
	}
}

func TestFacadeVecIndependent(t *testing.T) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 250, Dim: 24, Alpha: 0.8, Beta: 0.5, BallSize: 8, MidSize: 20, Seed: 11,
	})
	fi, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5), fairnn.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fi.SampleK(w.Query, 50, nil) {
		if ip := fairnn.Dot(w.Query, w.Points[id]); ip < 0.8 {
			t.Fatalf("inner product %v below alpha", ip)
		}
	}
}

func TestFacadeVecSamplerSimHash(t *testing.T) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 250, Dim: 24, Alpha: 0.8, Beta: 0.5, BallSize: 8, MidSize: 20, Seed: 17,
	})
	s, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	id, ok := s.Sample(w.Query, nil)
	if !ok {
		t.Fatal("SimHash sampler found nothing in a planted ball of 8")
	}
	if ip := fairnn.Dot(w.Query, s.(*fairnn.VecSampler).Point(id)); ip < 0.8 {
		t.Fatalf("inner product %v below alpha", ip)
	}
}

func TestFacadeVecSamplerIndependentCrossPolytope(t *testing.T) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 250, Dim: 24, Alpha: 0.8, Beta: 0.5, BallSize: 8, MidSize: 20, Seed: 23,
	})
	d, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.WithCrossPolytope(), fairnn.WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := 0; i < 60; i++ {
		if id, ok := d.Sample(w.Query, nil); ok {
			found++
			if ip := fairnn.Dot(w.Query, d.(*fairnn.VecSamplerIndependent).Point(id)); ip < 0.8 {
				t.Fatalf("inner product %v below alpha", ip)
			}
		}
	}
	if found < 45 {
		t.Errorf("cross-polytope sampler found only %d/60", found)
	}
}

func TestFacadeWeighted(t *testing.T) {
	sets, q := smallSets()
	// Quadratic preference for higher similarity.
	weight := func(sim float64) float64 { return sim * sim }
	wt, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Weighted), fairnn.WithWeight(weight, 1), fairnn.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int32]int{}
	const reps = 8000
	for i := 0; i < reps; i++ {
		if id, ok := wt.Sample(q, nil); ok {
			counts[id]++
		}
	}
	// Point 0 is the query itself (sim 1); others have sim 9/11.
	p0 := float64(counts[0]) / reps
	pOther := float64(counts[1]) / reps
	wantRatio := 1.0 / ((9.0 / 11.0) * (9.0 / 11.0))
	if pOther == 0 {
		t.Fatal("cluster member never sampled")
	}
	if gotRatio := p0 / pOther; math.Abs(gotRatio-wantRatio) > 0.5 {
		t.Errorf("weight ratio %v, want ≈ %v", gotRatio, wantRatio)
	}
}

func TestFacadeMultiRadius(t *testing.T) {
	sets, q := smallSets()
	built, err := fairnn.NewSet(sets, fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(0.3, 0.6, 0.95), fairnn.WithSeed(37))
	if err != nil {
		t.Fatal(err)
	}
	m := built.(*fairnn.SetMultiRadius)
	id, r, ok := m.SampleTightest(q, nil)
	if !ok {
		t.Fatal("no sample")
	}
	if r != 0.95 {
		t.Errorf("picked radius %v, want 0.95 (query itself is indexed)", r)
	}
	if fairnn.Jaccard(q, m.At(0).Point(id)) < 0.95 {
		t.Error("returned point below chosen threshold")
	}
}

func TestFacadeHelpers(t *testing.T) {
	s := fairnn.SetFromSlice([]uint32{3, 1, 2, 3})
	if s.Len() != 3 {
		t.Errorf("SetFromSlice len %d", s.Len())
	}
	v := fairnn.Normalize(fairnn.Vec{3, 4})
	if math.Abs(fairnn.Dot(v, v)-1) > 1e-12 {
		t.Error("Normalize/Dot broken")
	}
	if fairnn.Jaccard(s, s) != 1 {
		t.Error("Jaccard broken")
	}
}

// TestFacadeDynamic starts a dynamic sampler empty: (K, L) = (5, 12) is
// what automatic selection picks for 64 expected points at radius 0.6.
func TestFacadeDynamic(t *testing.T) {
	built, err := fairnn.NewSet(nil, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Dynamic), fairnn.WithParams(5, 12), fairnn.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	d := built.(*fairnn.SetDynamic)
	if d.Size() != 0 {
		t.Fatalf("empty start has Size %d", d.Size())
	}
	sets, q := smallSets()
	ids := make([]int32, len(sets))
	for i, s := range sets {
		ids[i], err = d.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
	}
	id, ok := d.Sample(q, nil)
	if !ok {
		t.Fatal("no sample after inserts")
	}
	if fairnn.Jaccard(q, d.Point(id)) < 0.6 {
		t.Fatal("far point returned")
	}
	// Delete the whole cluster except the query's own copy.
	for _, i := range ids[1:6] {
		if !d.Delete(i) {
			t.Fatal("delete failed")
		}
	}
	id, ok = d.Sample(q, nil)
	if !ok || id != ids[0] {
		t.Fatalf("after deletions expected the surviving copy, got %d (%v)", id, ok)
	}
}

// TestFacadeSampleKInto exercises the zero-allocation bulk variant
// through the Sampler interface on the Section 3, 4 and 5 structures.
func TestFacadeSampleKInto(t *testing.T) {
	sets, q := smallSets()
	d, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 0, 8)
	dst = d.SampleKInto(q, 8, dst, nil)
	if len(dst) == 0 {
		t.Fatal("SetIndependent.SampleKInto found nothing")
	}
	for _, id := range dst {
		if sim := fairnn.Jaccard(q, sets[id]); sim < 0.6 {
			t.Fatalf("similarity %v below radius", sim)
		}
	}

	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SampleKInto(q, 3, dst, nil); len(got) != 3 {
		t.Fatalf("SetSampler.SampleKInto returned %d, want 3", len(got))
	}

	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 200, Dim: 16, Alpha: 0.8, Beta: 0.5, BallSize: 8, MidSize: 20, Seed: 11,
	})
	fi, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5), fairnn.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	vdst := fi.SampleKInto(w.Query, 8, nil, nil)
	if len(vdst) == 0 {
		t.Fatal("VecIndependent.SampleKInto found nothing")
	}
	for _, id := range vdst {
		if ip := fairnn.Dot(w.Query, w.Points[id]); ip < 0.8 {
			t.Fatalf("inner product %v below alpha", ip)
		}
	}
}
