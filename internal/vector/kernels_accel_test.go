package vector

// Kernel-path equivalence tests for the accelerated (AVX2+FMA) tier and
// the batch API:
//
//   - the accelerated Dot/SquaredEuclidean must match the naive reference
//     to FP tolerance at every remainder class of the 16-wide unroll
//     (the reduction order differs, so exact equality is not expected);
//   - every batch entry point must be bit-identical to its single-pair
//     call on whichever tier is active — that equality is what lets the
//     query pipeline batch candidate scoring without perturbing any
//     sample stream.
//
// On builds or CPUs without the assembly kernels the accelerated cases
// skip; the bit-identity cases always run on the portable tier.

import (
	"math"
	"testing"

	"fairnn/internal/rng"
)

// restoreAccel flips the kernel tier for one test and restores the
// previous setting on cleanup.
func restoreAccel(t *testing.T, on bool) {
	t.Helper()
	prev := Accelerated()
	SetAccelerated(on)
	t.Cleanup(func() { SetAccelerated(prev) })
}

// remainderDims covers every remainder class of the 16-wide accelerated
// unroll at least once (0..33 spans each class below, at and above one
// full block), the class boundaries near 48, 64 and 128, and the large
// embedding sizes of the benchmark sweep.
var remainderDims = []int{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
	16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
	32, 33, 47, 48, 49, 63, 64, 65, 127, 128, 129, 384, 768,
}

func TestAcceleratedKernelsMatchNaive(t *testing.T) {
	if !AccelAvailable() {
		t.Skip("accelerated kernels unavailable in this build")
	}
	restoreAccel(t, true)
	r := rng.New(83)
	for _, d := range remainderDims {
		a, b := Gaussian(r, d), Gaussian(r, d)
		// Dot terms can cancel, so the achievable accuracy scales with the
		// sum of term magnitudes, not the result.
		var scale float64
		for i := range a {
			scale += math.Abs(a[i] * b[i])
		}
		if got, want := Dot(a, b), naiveDot(a, b); math.Abs(got-want) > 1e-12*(1+scale) {
			t.Errorf("dim %d: accelerated Dot = %v, naive = %v", d, got, want)
		}
		if got, want := SquaredEuclidean(a, b), naiveSq(a, b); math.Abs(got-want) > 1e-12*(1+want) {
			t.Errorf("dim %d: accelerated SquaredEuclidean = %v, naive = %v", d, got, want)
		}
	}
}

// TestBatchMatchesSingleBitIdentical pins the invariant every batched
// consumer relies on: batch output == single-call output, exactly, on
// whichever tier is active.
func TestBatchMatchesSingleBitIdentical(t *testing.T) {
	tiers := []bool{false}
	if AccelAvailable() {
		tiers = append(tiers, true)
	}
	for _, accel := range tiers {
		restoreAccel(t, accel)
		r := rng.New(89)
		for _, d := range []int{3, 8, 15, 16, 17, 31, 32, 100, 128, 384} {
			q := Gaussian(r, d)
			pts := make([]Vec, 23)
			rows := make([]float64, len(pts)*d)
			for k := range pts {
				pts[k] = Gaussian(r, d)
				copy(rows[k*d:(k+1)*d], pts[k])
			}
			ids := []int32{5, 0, 22, 7, 7, 13}
			out := make([]float64, len(pts))

			DotBatch(q, pts, out)
			for k, p := range pts {
				if out[k] != Dot(q, p) {
					t.Fatalf("accel=%v d=%d: DotBatch[%d] = %v, Dot = %v", accel, d, k, out[k], Dot(q, p))
				}
			}
			SquaredEuclideanBatch(q, pts, out)
			for k, p := range pts {
				if out[k] != SquaredEuclidean(q, p) {
					t.Fatalf("accel=%v d=%d: SquaredEuclideanBatch[%d] = %v, single = %v", accel, d, k, out[k], SquaredEuclidean(q, p))
				}
			}
			DotBatchIDs(q, pts, ids, out[:len(ids)])
			for k, id := range ids {
				if out[k] != Dot(q, pts[id]) {
					t.Fatalf("accel=%v d=%d: DotBatchIDs[%d] = %v, Dot = %v", accel, d, k, out[k], Dot(q, pts[id]))
				}
			}
			DotRows(rows, d, q, 2, 19, out[:17])
			for k := 0; k < 17; k++ {
				if out[k] != Dot(pts[2+k], q) {
					t.Fatalf("accel=%v d=%d: DotRows[%d] = %v, Dot = %v", accel, d, k, out[k], Dot(pts[2+k], q))
				}
			}
		}
	}
}

func TestSetAcceleratedToggles(t *testing.T) {
	prev := Accelerated()
	t.Cleanup(func() { SetAccelerated(prev) })
	if SetAccelerated(false) || Accelerated() {
		t.Fatal("SetAccelerated(false) left kernels accelerated")
	}
	if got := SetAccelerated(true); got != AccelAvailable() {
		t.Fatalf("SetAccelerated(true) = %v, AccelAvailable = %v", got, AccelAvailable())
	}
}
