package rng

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestPairwiseHashRange(t *testing.T) {
	f := func(seed, x uint64) bool {
		h := NewPairwiseHash(New(seed))
		return h.Hash(x) < h.Range()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPairwiseHashMatchesBig checks Hash against (a·x + b) mod (2^61-1)
// computed in math/big, at the edges of the input and product folds
// (inputs around p and 2^61, up to 2^64-1; multipliers 1 and p-1) and at
// random points.
func TestPairwiseHashMatchesBig(t *testing.T) {
	const p = mersenne61
	r := New(61)
	xs := []uint64{0, 1, p - 1, p, p + 1, 1 << 61, math.MaxUint64}
	as := []uint64{1, p - 1}
	for range 200 {
		xs = append(xs, r.Uint64())
	}
	for range 20 {
		as = append(as, r.Uint64n(p-1)+1)
	}
	bigP := new(big.Int).SetUint64(p)
	want := new(big.Int)
	for _, a := range as {
		for _, b := range []uint64{0, p - 1, r.Uint64n(p)} {
			h := PairwiseHash{a: a, b: b}
			for _, x := range xs {
				want.SetUint64(a)
				want.Mul(want, new(big.Int).SetUint64(x))
				want.Add(want, new(big.Int).SetUint64(b))
				want.Mod(want, bigP)
				if got := h.Hash(x); got != want.Uint64() {
					t.Fatalf("a=%d b=%d x=%d: Hash = %d, want %d", a, b, x, got, want.Uint64())
				}
			}
		}
	}
}

func TestPairwiseHashDeterministic(t *testing.T) {
	h := NewPairwiseHash(New(9))
	for x := uint64(0); x < 1000; x++ {
		if h.Hash(x) != h.Hash(x) {
			t.Fatal("hash not deterministic")
		}
	}
}

func TestPairwiseHashSpreads(t *testing.T) {
	// Bucket 100k consecutive keys into 16 buckets; each bucket should be
	// near 1/16 of the mass.
	h := NewPairwiseHash(New(31))
	const buckets = 16
	counts := make([]int, buckets)
	const n = 100000
	for x := uint64(0); x < n; x++ {
		counts[h.Hash(x)%buckets]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d count %d, want ~%f", i, c, want)
		}
	}
}

func TestPairwiseHashPairwiseCollisions(t *testing.T) {
	// Over random function draws, Pr[h(x)=h(y) mod m] ≈ 1/m for x≠y.
	const m = 64
	const trials = 20000
	src := New(55)
	coll := 0
	for i := 0; i < trials; i++ {
		h := NewPairwiseHash(src)
		if h.Hash(12345)%m == h.Hash(67890)%m {
			coll++
		}
	}
	p := float64(coll) / trials
	if p > 2.0/m {
		t.Errorf("pairwise collision rate %v, want ≈ %v", p, 1.0/m)
	}
}

func TestTabulationHashDistinctAndDeterministic(t *testing.T) {
	h := NewTabulationHash(New(17))
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 20000; x++ {
		v := h.Hash(x)
		if v != h.Hash(x) {
			t.Fatal("tabulation hash not deterministic")
		}
		if prev, ok := seen[v]; ok {
			t.Fatalf("collision between %d and %d", prev, x)
		}
		seen[v] = x
	}
}

func TestTabulationHashBitBalance(t *testing.T) {
	h := NewTabulationHash(New(23))
	const n = 50000
	ones := 0
	for x := uint64(0); x < n; x++ {
		ones += int(h.Hash(x) & 1)
	}
	p := float64(ones) / n
	if math.Abs(p-0.5) > 0.01 {
		t.Errorf("low bit bias: %v", p)
	}
}
