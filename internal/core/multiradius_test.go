package core

import (
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/stats"
)

func newLineMulti(t *testing.T, n int, radii []float64, seed uint64) *MultiRadius[int] {
	t.Helper()
	m, err := NewMultiRadius[int](intSpace(), allCollide{},
		func(float64) lsh.Params { return lsh.Params{K: 1, L: 1} },
		lineDataset(n), radii, IndependentOptions{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiRadiusPicksTightestNonEmpty(t *testing.T) {
	// Points 0..29; query 100 has nothing within 5, nothing within 20,
	// but {80..100+40} ∩ points... query 25: radius grid {1, 4, 16}.
	m := newLineMulti(t, 30, []float64{16, 1, 4}, 301)
	got := m.Radii()
	if got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("radii not sorted tightest-first: %v", got)
	}
	id, r, ok := m.SampleTightest(25, nil)
	if !ok {
		t.Fatal("sample failed")
	}
	if r != 1 {
		t.Errorf("picked radius %v, want 1 (ball {24,25,26} non-empty)", r)
	}
	if d := m.At(0).Point(id) - 25; d < -1 || d > 1 {
		t.Errorf("returned point %d outside radius-1 ball", m.At(0).Point(id))
	}
}

func TestMultiRadiusFallsBack(t *testing.T) {
	// Query 40 is at distance 11 from the nearest point (29): radius 1 and
	// 4 are empty, 16 succeeds.
	m := newLineMulti(t, 30, []float64{1, 4, 16}, 307)
	id, r, ok := m.SampleTightest(40, nil)
	if !ok {
		t.Fatal("sample failed")
	}
	if r != 16 {
		t.Errorf("picked radius %v, want 16", r)
	}
	if m.At(2).Point(id) < 24 {
		t.Errorf("returned point %d outside ball", m.At(2).Point(id))
	}
}

func TestMultiRadiusEmptyEverywhere(t *testing.T) {
	m := newLineMulti(t, 10, []float64{1, 2}, 311)
	if _, _, ok := m.SampleTightest(1000, nil); ok {
		t.Fatal("sampled from universally empty balls")
	}
}

func TestMultiRadiusUniformAtChosenRadius(t *testing.T) {
	m := newLineMulti(t, 40, []float64{3, 9}, 313)
	freq := stats.NewFrequency()
	for i := 0; i < 10000; i++ {
		id, r, ok := m.SampleTightest(0, nil)
		if !ok {
			t.Fatal("sample failed")
		}
		if r != 3 {
			t.Fatalf("wrong radius %v", r)
		}
		freq.Observe(id)
	}
	if tv := freq.TVFromUniform(domainInts(4)); tv > 0.04 {
		t.Errorf("TV at chosen radius = %v", tv)
	}
}

func TestMultiRadiusSampleAtLeast(t *testing.T) {
	// Require at least 10 near points: radius 3 has only 4, radius 9 has
	// 10 — the query must step up to radius 9. Every point collides with
	// the query, so the sketch estimate (40) would overstate both balls:
	// the answer must not depend on whether the caller passes stats.
	m := newLineMulti(t, 40, []float64{3, 9}, 317)
	for _, st := range []*QueryStats{nil, {}} {
		_, r, ok := m.SampleAtLeast(0, 10, st)
		if !ok {
			t.Fatal("sample failed")
		}
		if r != 9 {
			t.Errorf("stats %v: picked radius %v, want 9 for minBall=10", st != nil, r)
		}
		// With minBall 1 the tightest radius suffices.
		_, r, ok = m.SampleAtLeast(0, 1, st)
		if !ok || r != 3 {
			t.Errorf("stats %v: minBall=1 picked radius %v, want 3", st != nil, r)
		}
	}
}

func TestMultiRadiusSimilarityOrientation(t *testing.T) {
	// For similarity spaces, tightest means the highest threshold.
	simSpace := Space[int]{Kind: Similarity, Score: func(a, b int) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return 1 / (1 + float64(d))
	}}
	m, err := NewMultiRadius[int](simSpace, allCollide{},
		func(float64) lsh.Params { return lsh.Params{K: 1, L: 1} },
		lineDataset(30), []float64{0.2, 0.9, 0.5}, IndependentOptions{}, 319)
	if err != nil {
		t.Fatal(err)
	}
	radii := m.Radii()
	if radii[0] != 0.9 || radii[2] != 0.2 {
		t.Fatalf("similarity radii not sorted highest-first: %v", radii)
	}
	_, r, ok := m.SampleTightest(5, nil)
	if !ok {
		t.Fatal("sample failed")
	}
	if r != 0.9 {
		t.Errorf("picked %v, want 0.9 (the point itself has similarity 1)", r)
	}
}

func TestMultiRadiusRejectsEmptyGrid(t *testing.T) {
	if _, err := NewMultiRadius[int](intSpace(), allCollide{},
		func(float64) lsh.Params { return lsh.Params{K: 1, L: 1} },
		lineDataset(10), nil, IndependentOptions{}, 1); err == nil {
		t.Fatal("empty radius grid accepted")
	}
}
