// Package sketch implements the mergeable count-distinct (F0) sketch of
// Section 2.3 of the paper, following Bar-Yossef, Jayram, Kumar, Sivakumar
// and Trevisan ("Counting Distinct Elements in a Data Stream", RANDOM 2002),
// which generalizes Flajolet–Martin.
//
// The sketch keeps Δ = Θ(log 1/δ) independent rows; row w stores the
// t = Θ(1/ε²) smallest distinct values of {ψ_w(x)} over the stream, where
// ψ_w is drawn from a pairwise-independent family. The estimate is the
// median over rows of t·M/v_t, with v_t the t-th smallest value in the row
// and M the hash range. With probability at least 1-δ the estimate is
// within (1±ε) of the true number of distinct elements.
//
// Sketches of stream segments can be merged (union of rows, keep the t
// smallest), which is the property Section 4 uses: every LSH bucket stores
// a sketch, and a query merges the L sketches of its buckets to estimate
// s_q = |S_q|.
package sketch

import (
	"errors"
	"math"
	"math/bits"
	"slices"

	"fairnn/internal/rng"
)

// Params fixes the accuracy of a Distinct sketch.
type Params struct {
	// Epsilon is the multiplicative estimation error (ε in the paper).
	Epsilon float64
	// Delta is the failure probability (δ in the paper).
	Delta float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Epsilon > 0 && p.Epsilon < 1) {
		return errors.New("sketch: Epsilon must be in (0,1)")
	}
	if !(p.Delta > 0 && p.Delta < 1) {
		return errors.New("sketch: Delta must be in (0,1)")
	}
	return nil
}

// rows returns Δ = Θ(log 1/δ).
func (p Params) rows() int {
	d := int(math.Ceil(4 * math.Log(1/p.Delta)))
	if d < 1 {
		d = 1
	}
	// The median trick needs an odd number of rows.
	if d%2 == 0 {
		d++
	}
	return d
}

// capacityPerRow returns t = Θ(1/ε²).
func (p Params) capacityPerRow() int {
	t := int(math.Ceil(16 / (p.Epsilon * p.Epsilon)))
	if t < 2 {
		t = 2
	}
	return t
}

// Family holds the shared hash functions ψ_1..ψ_Δ. Two sketches
// can only be merged if they were created from the same Family.
type Family struct {
	params Params
	t      int
	hashes []rng.PairwiseHash
}

// NewFamily draws the Δ pairwise-independent hash functions. All sketches
// of one Section 4 data structure share a single Family so that per-bucket
// sketches are mergeable.
func NewFamily(params Params, r *rng.Source) (*Family, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	rows := params.rows()
	hashes := make([]rng.PairwiseHash, rows)
	for i := range hashes {
		hashes[i] = rng.NewPairwiseHash(r)
	}
	return &Family{params: params, t: params.capacityPerRow(), hashes: hashes}, nil
}

// Rows returns Δ, the number of independent estimator rows.
func (f *Family) Rows() int { return len(f.hashes) }

// Capacity returns t, the number of minima kept per row.
//
//fairnn:noalloc
func (f *Family) Capacity() int { return f.t }

// Distinct is one F0 sketch. The zero value is not usable; create sketches
// with Family.NewSketch.
type Distinct struct {
	family *Family
	// rows[w] holds the at most t smallest distinct hash values seen by ψ_w,
	// kept as a sorted ascending slice (t is small, insertion is a memmove).
	rows [][]uint64
	// estScratch backs Estimate's per-row medians so repeated estimates on
	// a reused sketch do not allocate.
	estScratch []float64
}

// NewSketch returns an empty sketch bound to the family.
func (f *Family) NewSketch() *Distinct {
	rows := make([][]uint64, f.Rows())
	return &Distinct{family: f, rows: rows}
}

// Sketch builds a sketch of the given ids in one pass.
func (f *Family) Sketch(ids []int32) *Distinct {
	s := f.NewSketch()
	s.AddIDs(ids, nil)
	return s
}

// Add inserts element x into the sketch.
//
//fairnn:noalloc
func (s *Distinct) Add(x uint64) {
	for w, h := range s.family.hashes {
		s.insert(w, h.Hash(x))
	}
}

// AddIDs adds every id as uint64(uint32(id)) and leaves each row exactly
// as calling Add once per id would, in any order and with repeats allowed.
// It works one row at a time: each id is hashed once per row, only the
// values at or below a threshold τ are kept (about t + 4√t of them for
// uniform hashes), and one sort of those plus the row's own values gives
// the row's t smallest. buf is the candidate scratch; it grows to at most
// len(ids)+t values and is returned for reuse.
//
//fairnn:noalloc
func (s *Distinct) AddIDs(ids []int32, buf []uint64) []uint64 {
	t := s.family.t
	return s.addIDs(ids, buf, uint64(t)+uint64(4*math.Sqrt(float64(t))))
}

// addIDs is AddIDs with the threshold's expected pass count c ≥ 1 as a
// parameter. τ starts at min(bound, ⌊M/m⌋·c): bound is the row's t-th value
// when the row is full (nothing above it can enter) and M−1 otherwise, and
// m = len(ids)+len(row) bounds the distinct values the row sees. A pass
// that keeps fewer than t values while τ < bound doubles τ and repeats, so
// every value left out is larger than every value kept.
//
//fairnn:noalloc
func (s *Distinct) addIDs(ids []int32, buf []uint64, c uint64) []uint64 {
	if len(ids) == 0 {
		return buf
	}
	t := s.family.t
	for w, h := range s.family.hashes {
		row := s.rows[w]
		bound := h.Range() - 1
		if len(row) == t {
			bound = row[t-1]
		}
		tau := bound
		if hi, lo := bits.Mul64(h.Range()/uint64(len(ids)+len(row)), c); hi == 0 && lo < bound {
			tau = lo
		}
		for {
			buf = buf[:0]
			for _, id := range ids {
				if v := h.Hash(uint64(uint32(id))); v <= tau {
					buf = append(buf, v)
				}
			}
			for _, v := range row {
				if v > tau {
					break // the row is sorted
				}
				buf = append(buf, v)
			}
			slices.Sort(buf)
			buf = slices.Compact(buf)
			if len(buf) >= t || tau == bound {
				break
			}
			tau = min(2*tau, bound)
		}
		row = row[:0]
		row = append(row, buf[:min(len(buf), t)]...)
		s.rows[w] = row
	}
	return buf
}

// insert places value v into row w if it is among the t smallest distinct
// values, keeping the row sorted.
//
//fairnn:noalloc
func (s *Distinct) insert(w int, v uint64) {
	row := s.rows[w]
	t := s.family.t
	if len(row) == t && v >= row[t-1] {
		return // not below the current t-th minimum
	}
	// Lower bound: i is the first index with row[i] >= v. Written out so
	// the search makes no call: sort.Search calls its closure per probe,
	// and Go 1.24 does not inline slices.BinarySearch.
	i, j := 0, len(row)
	for i < j {
		h := int(uint(i+j) >> 1)
		if row[h] < v {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(row) && row[i] == v {
		return // already present (distinct values only)
	}
	if len(row) < t {
		row = append(row, 0)
	}
	copy(row[i+1:], row[i:])
	row[i] = v
	s.rows[w] = row
}

// Reset empties the sketch, keeping each row's capacity for reuse.
//
//fairnn:noalloc
func (s *Distinct) Reset() {
	for w := range s.rows {
		s.rows[w] = s.rows[w][:0]
	}
}

// errFamilyMismatch is Merge's refusal of a sketch from another Family.
var errFamilyMismatch = errors.New("sketch: cannot merge sketches from different families")

// Merge folds other into s. Both sketches must come from the same Family.
// Merging sketches of stream segments yields exactly the sketch of the
// concatenated stream (the property Section 4 relies on). other is only
// read: its rows are never aliased into s.
//
//fairnn:noalloc
func (s *Distinct) Merge(other *Distinct) error {
	if other == nil {
		return nil
	}
	if s.family != other.family {
		return errFamilyMismatch
	}
	for w, row := range other.rows {
		for _, v := range row {
			s.insert(w, v)
		}
	}
	return nil
}

// Estimate returns the estimated number of distinct elements: the median
// over rows of t·M/v_t, or the exact count when a row holds fewer than t
// values (then the row has seen every distinct element).
//
//fairnn:noalloc
func (s *Distinct) Estimate() float64 {
	f := s.family
	if cap(s.estScratch) < len(s.rows) {
		s.estScratch = make([]float64, 0, len(s.rows))
	}
	ests := s.estScratch[:0]
	for w, row := range s.rows {
		if len(row) < f.t {
			// Fewer than t distinct hashed values: the exact distinct
			// count, since ψ_w maps distinct inputs below 2^61-1 to
			// distinct values (rng.PairwiseHash).
			ests = append(ests, float64(len(row)))
			continue
		}
		// A full row holds t ≥ 2 distinct values, so v_t ≥ 1.
		m := float64(f.hashes[w].Range())
		ests = append(ests, float64(f.t)*m/float64(row[len(row)-1]))
	}
	slices.Sort(ests)
	return ests[len(ests)/2]
}

// MemoryWords returns an estimate of the sketch size in 64-bit words,
// used by the Section 4 construction to decide whether storing the sketch
// is cheaper than re-sketching a small bucket on demand.
func (s *Distinct) MemoryWords() int {
	n := 0
	for _, row := range s.rows {
		n += len(row)
	}
	return n
}
