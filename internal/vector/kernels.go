package vector

// Kernel tiers and the batched scoring API.
//
// The exported Dot / SquaredEuclidean entry points dispatch between two
// tiers:
//
//   - accelerated: AVX2+FMA assembly (kernels_amd64.s) processing 16
//     float64 per iteration across four independent FMA chains, with the
//     sub-16 remainder summed sequentially in Go. Active on amd64 when
//     the CPU supports AVX2+FMA with OS-managed YMM state, unless
//     disabled (see below). Its FP reduction order differs from the
//     scalar tier, so accelerated results can differ from portable ones
//     in the last bits; within one process every consumer shares one
//     kernel, so batched and per-candidate scoring — and batched and
//     per-function signing — stay bit-identical to each other.
//   - portable: the 4-way-unrolled pure-Go loops in vector.go, the only
//     tier on non-amd64 architectures and under -tags purego (or noasm).
//
// Forcing the portable path: build with -tags purego, set FAIRNN_NOASM
// to any non-empty value before process start, or call
// SetAccelerated(false) at runtime (the test hook).
//
// The *Batch* variants score one query against many points per call,
// hoisting the dispatch, the dimension checks and the query-vector setup
// out of the candidate loop; each pair is computed by exactly the same
// kernel as the corresponding single-pair call, so batch output is
// bit-identical to single-call output on both tiers.

import "sync/atomic"

// asmBlock is the element count one accelerated loop iteration consumes;
// vectors shorter than this always take the portable kernels.
const asmBlock = 16

// cpuAccelOK records whether the running CPU supports the assembly
// kernels (set by the amd64 init; stays false on portable builds).
var cpuAccelOK bool

// accelOn gates the accelerated tier at runtime. Atomic so tests can
// flip it under -race; a plain load on the query path costs nothing on
// amd64.
var accelOn atomic.Bool

// Accelerated reports whether the AVX2 kernels are currently active.
func Accelerated() bool { return asmSupported && accelOn.Load() }

// AccelAvailable reports whether this build and CPU support the
// accelerated kernels at all (regardless of the runtime switch).
func AccelAvailable() bool { return asmSupported && cpuAccelOK }

// SetAccelerated enables or disables the accelerated kernels at runtime
// and reports whether they are now active. Enabling is a no-op on builds
// or CPUs without support. Intended for tests (kernel-path equivalence,
// scalar-vs-accelerated benchmarks) and for operators that need
// cross-platform bit-reproducibility more than speed.
func SetAccelerated(on bool) bool {
	accelOn.Store(on && asmSupported && cpuAccelOK)
	return Accelerated()
}

// dotAccel is the accelerated Dot for len(a) >= asmBlock: assembly over
// the 16-aligned prefix, sequential Go over the remainder.
func dotAccel(a, b Vec) float64 {
	n := len(a) &^ (asmBlock - 1)
	s := dotAVX2(&a[0], &b[0], n)
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// sqDistAccel is the accelerated SquaredEuclidean for len(a) >= asmBlock.
func sqDistAccel(a, b Vec) float64 {
	n := len(a) &^ (asmBlock - 1)
	s := sqDistAVX2(&a[0], &b[0], n)
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DotBatch computes out[k] = Dot(q, pts[k]) for every k, bit-identical to
// the single-pair calls on either kernel tier.
//
//fairnn:noalloc
func DotBatch(q Vec, pts []Vec, out []float64) {
	if asmSupported && accelOn.Load() && len(q) >= asmBlock {
		for k, p := range pts {
			if len(p) != len(q) {
				panic("vector: dimension mismatch")
			}
			out[k] = dotAccel(q, p)
		}
		return
	}
	for k, p := range pts {
		if len(p) != len(q) {
			panic("vector: dimension mismatch")
		}
		out[k] = dotGeneric(q, p)
	}
}

// DotBatchIDs computes out[k] = Dot(q, pts[ids[k]]) for every k — the
// gather form used by id-indexed candidate scoring.
//
//fairnn:noalloc
func DotBatchIDs(q Vec, pts []Vec, ids []int32, out []float64) {
	if asmSupported && accelOn.Load() && len(q) >= asmBlock {
		for k, id := range ids {
			p := pts[id]
			if len(p) != len(q) {
				panic("vector: dimension mismatch")
			}
			out[k] = dotAccel(q, p)
		}
		return
	}
	for k, id := range ids {
		p := pts[id]
		if len(p) != len(q) {
			panic("vector: dimension mismatch")
		}
		out[k] = dotGeneric(q, p)
	}
}

// SquaredEuclideanBatch computes out[k] = SquaredEuclidean(q, pts[k]) for
// every k, bit-identical to the single-pair calls on either kernel tier.
func SquaredEuclideanBatch(q Vec, pts []Vec, out []float64) {
	if asmSupported && accelOn.Load() && len(q) >= asmBlock {
		for k, p := range pts {
			if len(p) != len(q) {
				panic("vector: dimension mismatch")
			}
			out[k] = sqDistAccel(q, p)
		}
		return
	}
	for k, p := range pts {
		if len(p) != len(q) {
			panic("vector: dimension mismatch")
		}
		out[k] = squaredEuclideanGeneric(q, p)
	}
}

// DotRows computes out[i-lo] = Dot(rows[i*dim:(i+1)*dim], v) for i in
// [lo, hi) over a flat row-major matrix — the signing inner products of
// the SimHash/E2LSH batch families. Per-row results are bit-identical to
// vector.Dot on either tier, so batched and per-function signatures stay
// bit-equal.
func DotRows(rows []float64, dim int, v Vec, lo, hi int, out []float64) {
	if dim != len(v) {
		panic("vector: dimension mismatch")
	}
	if asmSupported && accelOn.Load() && dim >= asmBlock {
		n := dim &^ (asmBlock - 1)
		for i := lo; i < hi; i++ {
			row := rows[i*dim : (i+1)*dim]
			s := dotAVX2(&row[0], &v[0], n)
			for j := n; j < dim; j++ {
				s += row[j] * v[j]
			}
			out[i-lo] = s
		}
		return
	}
	for i := lo; i < hi; i++ {
		out[i-lo] = dotGeneric(rows[i*dim:(i+1)*dim], v)
	}
}
