package rng

import "math/bits"

// This file implements the pairwise-independent hash families from
// Section 2.3 of the paper (used by the count-distinct sketch) and the
// universal family used to draw the random rank permutation of Section 3.

// mersenne61 is the Mersenne prime 2^61 - 1, the classic modulus for
// Carter–Wegman universal hashing with 64-bit inputs.
const mersenne61 = (1 << 61) - 1

// PairwiseHash is a pairwise-independent hash function
// h(x) = ((a*x + b) mod p) with p = 2^61 - 1, a in [1, p), b in [0, p).
// Its outputs are uniform in [0, 2^61-1) and pairwise independent, which is
// exactly the guarantee the Bar-Yossef et al. F0 sketch requires. Since p
// is prime and a ≠ 0, h is a bijection of [0, p): distinct inputs below
// 2^61-1 never collide.
type PairwiseHash struct {
	a, b uint64
}

// NewPairwiseHash draws a function from the family using r.
func NewPairwiseHash(r *Source) PairwiseHash {
	a := r.Uint64n(mersenne61-1) + 1 // a != 0
	b := r.Uint64n(mersenne61)
	return PairwiseHash{a: a, b: b}
}

// Hash evaluates the function on x. The result lies in [0, 2^61-1).
//
//fairnn:noalloc
func (h PairwiseHash) Hash(x uint64) uint64 {
	// Compute (a*x + b) mod p, p = 2^61-1, by Mersenne folds: any v is
	// congruent to (v & p) + (v >> 61) mod p. The input fold leaves x below
	// 2^62, so a*x < 2^123; the product's fold plus b stays below 2^63, a
	// second fold leaves at most p+3, and one subtraction the residue.
	hi, lo := bits.Mul64(h.a, (x&mersenne61)+(x>>61))
	v := (lo & mersenne61) + (lo>>61 | hi<<3) + h.b
	v = (v & mersenne61) + (v >> 61)
	if v >= mersenne61 {
		v -= mersenne61
	}
	return v
}

// Range returns the size of the hash range (2^61 - 1).
//
//fairnn:noalloc
func (h PairwiseHash) Range() uint64 { return mersenne61 }

// TabulationHash is a simple 4x16-bit tabulation hash over 64-bit keys.
// Tabulation hashing is 3-independent and behaves like a truly random
// function for the min-wise applications in this library; MinHash uses it
// keyed per hash function.
type TabulationHash struct {
	tables [8][256]uint64
}

// NewTabulationHash fills the tables from r.
func NewTabulationHash(r *Source) *TabulationHash {
	t := &TabulationHash{}
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = r.Uint64()
		}
	}
	return t
}

// Hash evaluates the tabulation hash on x.
func (t *TabulationHash) Hash(x uint64) uint64 {
	var h uint64
	for i := 0; i < 8; i++ {
		h ^= t.tables[i][byte(x>>(8*uint(i)))]
	}
	return h
}
