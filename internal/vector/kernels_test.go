package vector

// Tests and microbenchmarks for the unrolled distance kernels introduced
// with the memoized query path: SquaredEuclidean must agree with
// Euclidean² to FP tolerance at every dimension (including the unroll
// remainders 1–3). BENCH_PR2.json, pre-harness history, records the
// benchmarks' first run.

import (
	"fmt"
	"math"
	"testing"

	"fairnn/internal/rng"
)

// naiveDot/naiveSq are the straightforward single-accumulator references.
func naiveDot(a, b Vec) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func naiveSq(a, b Vec) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestUnrolledKernelsMatchNaive(t *testing.T) {
	r := rng.New(77)
	// Cover every remainder class of the 4-way unroll, plus larger dims.
	for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 64, 100, 257} {
		a, b := Gaussian(r, d), Gaussian(r, d)
		if got, want := Dot(a, b), naiveDot(a, b); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("dim %d: Dot = %v, naive = %v", d, got, want)
		}
		if got, want := SquaredEuclidean(a, b), naiveSq(a, b); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("dim %d: SquaredEuclidean = %v, naive = %v", d, got, want)
		}
		if got, want := Euclidean(a, b), math.Sqrt(naiveSq(a, b)); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("dim %d: Euclidean = %v, want %v", d, got, want)
		}
	}
}

func TestSquaredEuclideanProperties(t *testing.T) {
	r := rng.New(79)
	a, b := Gaussian(r, 33), Gaussian(r, 33)
	if sq := SquaredEuclidean(a, a); sq != 0 {
		t.Errorf("SquaredEuclidean(a, a) = %v, want 0", sq)
	}
	if sq := SquaredEuclidean(a, b); sq < 0 {
		t.Errorf("SquaredEuclidean negative: %v", sq)
	}
	if d, sq := Euclidean(a, b), SquaredEuclidean(a, b); math.Abs(d*d-sq) > 1e-9*(1+sq) {
		t.Errorf("Euclidean² = %v, SquaredEuclidean = %v", d*d, sq)
	}
}

func TestSquaredEuclideanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	SquaredEuclidean(Vec{1, 2}, Vec{1})
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks: a dimension sweep with one sub-benchmark per
// kernel tier, so one run yields the scalar-vs-accelerated comparison.
// SetBytes counts both operand vectors (16 bytes per dimension), so the
// ns/op column doubles as a GB/s gauge. bench/'s filter-vec reports the
// d = 128 batched kernels as vector.dot_ns and vector.sqdist_ns;
// BENCH_PR7.json, pre-harness history, records a whole sweep.

const benchDim = 128

func benchVecs() (Vec, Vec) {
	r := rng.New(81)
	return Gaussian(r, benchDim), Gaussian(r, benchDim)
}

var sinkFloat float64

var benchDims = []int{16, 64, 128, 384, 768}

func benchKernelTiers(b *testing.B, kernel func(Vec, Vec) float64) {
	for _, d := range benchDims {
		r := rng.New(81)
		x, y := Gaussian(r, d), Gaussian(r, d)
		run := func(name string, accel bool) {
			b.Run(fmt.Sprintf("d=%d/%s", d, name), func(b *testing.B) {
				if accel && !AccelAvailable() {
					b.Skip("accelerated kernels unavailable in this build")
				}
				prev := Accelerated()
				SetAccelerated(accel)
				defer SetAccelerated(prev)
				b.SetBytes(int64(16 * d))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkFloat = kernel(x, y)
				}
			})
		}
		run("scalar", false)
		run("accel", true)
	}
}

func BenchmarkDot(b *testing.B) { benchKernelTiers(b, Dot) }

func BenchmarkSquaredEuclidean(b *testing.B) { benchKernelTiers(b, SquaredEuclidean) }

func BenchmarkEuclideanSqrt(b *testing.B) {
	x, y := benchVecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = Euclidean(x, y)
	}
}
