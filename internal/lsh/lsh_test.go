package lsh

import (
	"math"
	"testing"

	"fairnn/internal/rng"
	"fairnn/internal/set"
	"fairnn/internal/vector"
)

// collisionRate estimates Pr[h(a)=h(b)] over draws from the family.
func collisionRate[P any](f Family[P], a, b P, trials int, seed uint64) float64 {
	r := rng.New(seed)
	coll := 0
	for i := 0; i < trials; i++ {
		h := f.New(r)
		if h(a) == h(b) {
			coll++
		}
	}
	return float64(coll) / float64(trials)
}

func TestMinHashCollisionMatchesJaccard(t *testing.T) {
	cases := []struct {
		a, b set.Set
	}{
		{set.Range(1, 30), set.Range(1, 27)},  // J = 0.9
		{set.Range(1, 30), set.Range(1, 18)},  // J = 0.6
		{set.Range(1, 30), set.Range(16, 30)}, // J = 0.5
		{set.Range(1, 10), set.Range(11, 20)}, // J = 0
	}
	for i, c := range cases {
		want := set.Jaccard(c.a, c.b)
		got := collisionRate[set.Set](MinHash{}, c.a, c.b, 20000, uint64(i+1))
		if math.Abs(got-want) > 0.02 {
			t.Errorf("case %d: collision rate %v, want %v", i, got, want)
		}
	}
}

func TestMinHashIdenticalSetsAlwaysCollide(t *testing.T) {
	a := set.Range(5, 25)
	if got := collisionRate[set.Set](MinHash{}, a, a.Clone(), 200, 9); got != 1 {
		t.Errorf("identical sets collide at rate %v", got)
	}
}

func TestMinHashEmptySetsCollide(t *testing.T) {
	if got := collisionRate[set.Set](MinHash{}, nil, nil, 100, 10); got != 1 {
		t.Errorf("empty sets collide at rate %v, want 1", got)
	}
}

func TestOneBitMinHashCollision(t *testing.T) {
	a, b := set.Range(1, 30), set.Range(1, 18) // J = 0.6
	want := (1 + 0.6) / 2
	got := collisionRate[set.Set](OneBitMinHash{}, a, b, 30000, 11)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("collision rate %v, want %v", got, want)
	}
	if p := (OneBitMinHash{}).CollisionProb(0.6); math.Abs(p-want) > 1e-12 {
		t.Errorf("CollisionProb = %v, want %v", p, want)
	}
}

func TestSimHashCollision(t *testing.T) {
	r := rng.New(12)
	q := vector.RandomUnit(r, 32)
	for _, s := range []float64{0.9, 0.5, 0.0} {
		p := vector.UnitWithInnerProduct(r, q, s)
		want := (SimHash{Dim: 32}).CollisionProb(s)
		got := collisionRate[vector.Vec](SimHash{Dim: 32}, q, p, 20000, uint64(100*s)+13)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("s=%v: collision rate %v, want %v", s, got, want)
		}
	}
}

func TestEuclideanCollisionMonotone(t *testing.T) {
	f := Euclidean{Dim: 8, W: 4}
	prev := f.CollisionProb(0.001)
	if prev < 0.95 {
		t.Errorf("p(~0) = %v, want ≈ 1", prev)
	}
	for _, d := range []float64{0.5, 1, 2, 4, 8, 16} {
		p := f.CollisionProb(d)
		if p > prev+1e-12 {
			t.Errorf("collision prob not monotone at d=%v: %v > %v", d, p, prev)
		}
		prev = p
	}
}

func TestEuclideanEmpirical(t *testing.T) {
	r := rng.New(14)
	f := Euclidean{Dim: 16, W: 4}
	a := vector.Gaussian(r, 16)
	b := vector.Clone(a)
	b[0] += 2 // distance exactly 2
	want := f.CollisionProb(2)
	got := collisionRate[vector.Vec](f, a, b, 20000, 15)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical %v vs analytic %v", got, want)
	}
}

func TestBitSamplingCollision(t *testing.T) {
	f := BitSampling{Dim: 20}
	a := make(vector.Vec, 20)
	b := make(vector.Vec, 20)
	for i := 0; i < 5; i++ {
		b[i] = 1 // Hamming distance 5
	}
	want := f.CollisionProb(5) // 0.75
	got := collisionRate[vector.Vec](f, a, b, 20000, 16)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical %v vs analytic %v", got, want)
	}
}

func TestConcatReducesCollision(t *testing.T) {
	a, b := set.Range(1, 30), set.Range(1, 18) // J = 0.6, 1-bit p = 0.8
	r := rng.New(17)
	const trials = 20000
	coll := 0
	for i := 0; i < trials; i++ {
		g := Concat[set.Set](OneBitMinHash{}, 4, r)
		if g(a) == g(b) {
			coll++
		}
	}
	got := float64(coll) / trials
	want := math.Pow(0.8, 4)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("K=4 collision %v, want %v", got, want)
	}
}

func TestConcatPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Concat[set.Set](MinHash{}, 0, rng.New(1))
}

func TestChooseKRule(t *testing.T) {
	// Section 6 rule: n·p(0.1)^K ≤ 5 with 1-bit MinHash (p = 0.55).
	n := 990
	k := ChooseK[set.Set](OneBitMinHash{}, n, 0.1, 5)
	p := (OneBitMinHash{}).CollisionProb(0.1)
	if float64(n)*math.Pow(p, float64(k)) > 5 {
		t.Errorf("K=%d does not satisfy the bound", k)
	}
	if k > 1 && float64(n)*math.Pow(p, float64(k-1)) <= 5 {
		t.Errorf("K=%d is not minimal", k)
	}
}

func TestChooseLRule(t *testing.T) {
	k := 9
	l := ChooseL[set.Set](OneBitMinHash{}, k, 0.9, 0.99)
	pk := math.Pow((OneBitMinHash{}).CollisionProb(0.9), float64(k))
	recall := 1 - math.Pow(1-pk, float64(l))
	if recall < 0.99 {
		t.Errorf("L=%d gives recall %v < 0.99", l, recall)
	}
	if l > 1 {
		recallPrev := 1 - math.Pow(1-pk, float64(l-1))
		if recallPrev >= 0.99 {
			t.Errorf("L=%d is not minimal", l)
		}
	}
}

func TestTheoryParams(t *testing.T) {
	p := TheoryParams(0.9, 0.3, 10000)
	if p.K < 1 || p.L < 1 {
		t.Fatalf("bad params %+v", p)
	}
	// p2^K ≤ 1/n must hold approximately.
	if math.Pow(0.3, float64(p.K)) > 1.0/10000*1.01 {
		t.Errorf("K=%d does not drive p2^K below 1/n", p.K)
	}
}

func TestRho(t *testing.T) {
	if got := Rho(0.5, 0.25); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Rho = %v, want 0.5", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{K: 0, L: 1}).Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	if err := (Params{K: 1, L: 0}).Validate(); err == nil {
		t.Error("L=0 accepted")
	}
	if err := (Params{K: 1, L: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}
