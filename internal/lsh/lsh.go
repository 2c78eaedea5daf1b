// Package lsh implements the locality-sensitive hashing framework of
// Section 2.2: hash families (MinHash, 1-bit MinHash, SimHash, p-stable
// E2LSH, bit sampling), AND-composition of K functions into one bucket key,
// the batched signature engine that computes a point's L bucket keys in one
// pass, and the parameter-selection rules the paper's experiments use
// (Section 6: pick K so that few far points collide, pick L so that near
// points are recalled with 99% probability). The L tables themselves live
// with the data structures in internal/core, which group points by these
// keys into buckets of their own layout.
//
// A family is generic over the point type P (sparse sets for Jaccard,
// dense vectors for angular/Euclidean), so the fair samplers in
// internal/core work with any distance for which an LSH family exists —
// the "black box" property of the Section 3 and 4 data structures.
package lsh

import (
	"errors"
	"math"

	"fairnn/internal/rng"
)

// Func is a single hash function drawn from an LSH family: it maps a point
// to a 64-bit bucket key.
type Func[P any] func(P) uint64

// Family describes a distribution over hash functions (Definition 3).
type Family[P any] interface {
	// New draws one hash function using randomness from r.
	New(r *rng.Source) Func[P]
	// CollisionProb returns Pr[h(x)=h(y)] as a function of the similarity
	// (for similarity-oriented families) or distance (for distance-oriented
	// families) between x and y.
	CollisionProb(s float64) float64
}

// Concat AND-composes k independent draws from family into one function
// whose collision probability is CollisionProb(s)^k. Keys are combined with
// a strong mixer, so distinct k-tuples map to distinct uint64 keys except
// with negligible probability.
func Concat[P any](family Family[P], k int, r *rng.Source) Func[P] {
	if k < 1 {
		panic("lsh: Concat with k < 1")
	}
	fns := make([]Func[P], k)
	for i := range fns {
		fns[i] = family.New(r)
	}
	if k == 1 {
		f := fns[0]
		return func(p P) uint64 { return rng.Mix64(f(p)) }
	}
	return func(p P) uint64 {
		acc := uint64(0x51ef23a8a1b7c94d)
		for _, f := range fns {
			acc = rng.Combine(acc, f(p))
		}
		return acc
	}
}

// Params bundles the classic (K, L) parameters of an LSH table set.
type Params struct {
	// K is the number of AND-concatenated hash functions per table.
	K int
	// L is the number of tables (OR-repetitions).
	L int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return errors.New("lsh: K must be >= 1")
	}
	if p.L < 1 {
		return errors.New("lsh: L must be >= 1")
	}
	return nil
}

// powNonNeg returns p^k for k >= 0 without math.Pow edge cases.
func powNonNeg(p float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= p
	}
	return out
}

// ChooseK returns the smallest K such that the expected number of colliding
// points at similarity (or distance) sFar is at most maxExpected:
// n · p(sFar)^K ≤ maxExpected. This is the rule used in Section 6
// ("we set K such that we expect no more than 5 points with Jaccard
// similarity at most 0.1 to have the same hash value as the query").
func ChooseK[P any](family Family[P], n int, sFar float64, maxExpected float64) int {
	p := family.CollisionProb(sFar)
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 64 // degenerate family; cap concatenation
	}
	k := 1
	exp := float64(n) * p
	for exp > maxExpected && k < 64 {
		k++
		exp *= p
	}
	return k
}

// ChooseL returns the smallest L such that a point at similarity (or
// distance) sNear collides with the query in at least one of the L tables
// with probability at least successProb: 1-(1-p(sNear)^K)^L ≥ successProb.
// This is the Section 6 rule with successProb = 0.99.
func ChooseL[P any](family Family[P], k int, sNear float64, successProb float64) int {
	pk := powNonNeg(family.CollisionProb(sNear), k)
	if pk >= 1 {
		return 1
	}
	if pk <= 0 {
		return 1 << 20 // unreachable similarity; caller should validate
	}
	l := math.Log(1-successProb) / math.Log(1-pk)
	if l < 1 {
		return 1
	}
	return int(math.Ceil(l))
}

// TheoryParams returns the textbook parameters of Section 2.2 for an
// (r, cr, p1, p2)-sensitive family: K = ⌈log(1/n)/log(p2)⌉ drives p2^K ≤ 1/n,
// and L = ⌈ln(n)/p1^K⌉ gives high-probability recall of every near point.
func TheoryParams(p1, p2 float64, n int) Params {
	if p2 >= 1 {
		p2 = 1 - 1e-9
	}
	k := int(math.Ceil(math.Log(float64(n)) / math.Log(1/p2)))
	if k < 1 {
		k = 1
	}
	p1k := math.Pow(p1, float64(k))
	l := int(math.Ceil(math.Log(float64(n)) / p1k))
	if l < 1 {
		l = 1
	}
	return Params{K: k, L: l}
}

// Rho returns the LSH quality ρ = log(p1)/log(p2) of Definition 3.
func Rho(p1, p2 float64) float64 {
	return math.Log(p1) / math.Log(p2)
}
