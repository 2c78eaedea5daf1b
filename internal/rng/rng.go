// Package rng provides deterministic pseudo-randomness for the whole
// library: a fast xoshiro256** generator seeded via splitmix64, Gaussian
// variates, permutations, and the pairwise-independent hash families used
// by the count-distinct sketches and the rank permutation of the paper.
//
// The package deliberately avoids math/rand so that experiment outputs are
// bit-for-bit reproducible across Go releases; every data structure in this
// repository derives all randomness from an explicit *rng.Source.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator
// (xoshiro256** by Blackman and Vigna, seeded with splitmix64).
// It is not safe for concurrent use; derive independent sources with Split.
type Source struct {
	s0, s1, s2, s3 uint64
	// cached second Gaussian variate from the last Box–Muller draw.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed (re)initializes the generator state from a single 64-bit seed
// using the splitmix64 expansion recommended by the xoshiro authors.
//
//fairnn:noalloc
func (r *Source) Seed(seed uint64) {
	sm := seed
	//fairnn:allocok non-escaping local closure; the compiler keeps it on the stack
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not start in the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	r.hasGauss = false
}

// Split returns a new Source whose stream is independent (for all practical
// purposes) of r's: it is seeded from the next value of r mixed with a
// distinct constant. Useful for handing sub-structures their own generators.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0x6a09e667f3bcc909)
}

//fairnn:noalloc
func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
//
//fairnn:noalloc
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
//
//fairnn:noalloc
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
//
//fairnn:noalloc
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// The high word of the 128-bit product v·n, rejecting biased low words.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//fairnn:noalloc
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
//
//fairnn:noalloc
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
//
//fairnn:noalloc
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
//
//fairnn:noalloc
func (r *Source) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Exp returns an exponential variate with rate 1.
//
//fairnn:noalloc
func (r *Source) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniform random permutation of [0, n) as a slice of int32.
// int32 keeps rank arrays compact; the library never indexes more than 2^31
// points (the paper's regime is n in the thousands to millions).
func (r *Source) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r.ShuffleInt32(p)
	return p
}

// ShuffleInt32 performs an in-place Fisher–Yates shuffle.
//
//fairnn:noalloc
func (r *Source) ShuffleInt32(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s using inverse-transform over precomputed cumulative weights.
// For repeated sampling construct a ZipfGen instead.
type ZipfGen struct {
	cum []float64
}

// NewZipf precomputes a Zipf(s) distribution over [0, n).
func NewZipf(n int, s float64) *ZipfGen {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	inv := 1 / total
	for i := range cum {
		cum[i] *= inv
	}
	return &ZipfGen{cum: cum}
}

// Sample draws one index from the Zipf distribution.
func (z *ZipfGen) Sample(r *Source) int {
	u := r.Float64()
	// Binary search for the first index with cum >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Mix64 is a strong 64-bit finalizer (splitmix64's mixer). It is used as a
// cheap "random oracle" keyed by XOR with a seed, e.g. for MinHash.
//
//fairnn:noalloc
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Combine mixes a hash accumulator with the next value; used to build
// K-wise AND-compositions of LSH values into a single bucket key.
//
//fairnn:noalloc
func Combine(acc, v uint64) uint64 {
	return Mix64(acc ^ (v + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)))
}
