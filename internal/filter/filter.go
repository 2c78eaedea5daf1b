// Package filter implements the locality-sensitive filter substrate of
// Section 5 and Appendix B: a bank of t·m^(1/t) Gaussian filter vectors
// arranged as t independent sub-structures (tensoring). Every data point is
// stored exactly once — in the bucket indexed by the t vectors achieving
// the maximum inner product with the point, one per sub-structure. A query
// evaluates all filters, admits in each sub-structure i the set I_i of
// filters scoring at least α·Δ_{q,i} − f(α, ε), and returns the non-empty
// buckets of I_1 × ... × I_t.
//
// The buckets are stored flat, in ascending key order and grouped by their
// leading filter, so a query scans only the stored buckets whose leading
// filter is admitted and keeps those whose other t−1 filters are admitted
// too. Enumeration therefore costs at most n bucket checks, not the
// |I_1|·...·|I_t| tuples of the cartesian product, most of which are empty.
//
// This is the "much simpler" nearly-linear-space alternative to the LSH
// tables: construction stores n + t·m^(1/t) items, and Theorem 7 bounds the
// query time by n^ρ + o(1) with ρ = (1−α²)(1−β²)/(1−αβ)².
package filter

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fairnn/internal/rng"
	"fairnn/internal/vector"
)

// ErrKeySpace reports a bank geometry whose bucket keys do not fit: a key
// packs the t filter indexes as a base-m^(1/t) number, so M1T^T must not
// exceed MaxInt64, which also bounds QueryPlan.Combos, an int.
var ErrKeySpace = errors.New("filter: bucket key space M1T^T exceeds 63 bits")

// F returns f(α, ε) = sqrt(2(1−α²) ln(1/ε)), the query threshold slack of
// Section 5.
//
//fairnn:noalloc
func F(alpha, eps float64) float64 {
	return math.Sqrt(2 * (1 - alpha*alpha) * math.Log(1/eps))
}

// Tensoring returns t = ⌈1/(1−α²)⌉, the number of sub-structures.
func Tensoring(alpha float64) int {
	t := int(math.Ceil(1 / (1 - alpha*alpha)))
	if t < 1 {
		t = 1
	}
	return t
}

// Rho returns the query exponent ρ = (1−α²)(1−β²)/(1−αβ)² of Theorem 3.
func Rho(alpha, beta float64) float64 {
	num := (1 - alpha*alpha) * (1 - beta*beta)
	den := (1 - alpha*beta) * (1 - alpha*beta)
	return num / den
}

// FiltersPerSub returns m^(1/t) for m = n^((1−β²)/(1−αβ)²), the per-sub-
// structure filter count that balances far-point cost against filter
// evaluation cost (Lemma 3 / Theorem 7), with a floor of 2.
func FiltersPerSub(n int, alpha, beta float64) int {
	exp := (1 - beta*beta) / ((1 - alpha*beta) * (1 - alpha*beta))
	m := math.Pow(float64(n), exp)
	t := Tensoring(alpha)
	m1t := int(math.Ceil(math.Pow(m, 1/float64(t))))
	if m1t < 2 {
		m1t = 2
	}
	return m1t
}

// Params configures one filter bank.
type Params struct {
	// Alpha is the near threshold (inner product of unit vectors).
	Alpha float64
	// Beta is the far threshold, −1 < Beta < Alpha < 1.
	Beta float64
	// Eps controls the per-bank success probability via f(α, ε).
	Eps float64
	// M1T overrides m^(1/t) when > 0; otherwise FiltersPerSub is used.
	M1T int
	// T overrides the tensoring degree when > 0; otherwise Tensoring(α).
	T int
}

// Validate reports whether the parameters are usable for n points.
func (p Params) Validate() error {
	if !(p.Alpha > -1 && p.Alpha < 1) {
		return errors.New("filter: Alpha must be in (-1, 1)")
	}
	if !(p.Beta > -1 && p.Beta < p.Alpha) {
		return errors.New("filter: Beta must be in (-1, Alpha)")
	}
	if !(p.Eps > 0 && p.Eps < 1) {
		return errors.New("filter: Eps must be in (0, 1)")
	}
	return nil
}

func (p Params) resolve(n int) Params {
	if p.T <= 0 {
		p.T = Tensoring(p.Alpha)
	}
	if p.M1T <= 0 {
		p.M1T = FiltersPerSub(n, p.Alpha, p.Beta)
	}
	return p
}

// checkKeySpace rejects a resolved geometry whose key space M1T^T exceeds
// MaxInt64, where distinct argmax tuples would share a bucket.
func (p Params) checkKeySpace() error {
	hi, space := uint64(0), uint64(1)
	for i := 0; i < p.T && hi == 0; i++ {
		hi, space = bits.Mul64(space, uint64(p.M1T))
	}
	if hi != 0 || space > math.MaxInt64 {
		return fmt.Errorf("%w: T=%d, M1T=%d", ErrKeySpace, p.T, p.M1T)
	}
	return nil
}

// Bank is one Section 5 data structure: t sub-structures of m^(1/t)
// Gaussian vectors each, plus the buckets. Each indexed point is
// referenced exactly once.
//
// The buckets are stored flat. Slot s is the s-th non-empty bucket in
// ascending key order: its key is keys[s] and its ids, ascending, are
// ids[start[s]:start[s+1]]. Because the leading digit of a key is its most
// significant, the slots of leading digit j are the contiguous range
// lead[j]:lead[j+1], and rest[s·(t−1):(s+1)·(t−1)] holds slot s's other
// digits, most significant first.
//
//fairnn:frozen
type Bank struct {
	params Params
	// vecs[i][j] is filter vector a_{i,j}.
	vecs   [][]vector.Vec
	keys   []uint64
	start  []int32
	ids    []int32
	slotOf []int32 // slotOf[id] is the slot point id is stored in
	lead   []int32
	rest   []uint32
}

// NewBank indexes the points (assumed unit vectors) into a fresh bank. It
// returns an error wrapping ErrKeySpace when the resolved T and M1T
// overflow the bucket key.
func NewBank(points []vector.Vec, params Params, r *rng.Source) (*Bank, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, errors.New("filter: empty point set")
	}
	params = params.resolve(len(points))
	if err := params.checkKeySpace(); err != nil {
		return nil, err
	}
	dim := len(points[0])
	b := &Bank{
		params: params,
		vecs:   make([][]vector.Vec, params.T),
	}
	for i := 0; i < params.T; i++ {
		b.vecs[i] = make([]vector.Vec, params.M1T)
		for j := 0; j < params.M1T; j++ {
			b.vecs[i][j] = vector.Gaussian(r, dim)
		}
	}
	keyOf := make([]uint64, len(points))
	dots := make([]float64, params.M1T)
	for id, p := range points {
		keyOf[id] = b.argmaxKeyInto(p, dots)
	}
	b.buildLayout(keyOf)
	return b, nil
}

// buildLayout builds the flat bucket arrays from each point's key: the ids
// sorted by (key, id), one slot per distinct key, the slot ranges of each
// leading digit, and every slot's other digits.
func (b *Bank) buildLayout(keyOf []uint64) {
	t, m1t := b.params.T, uint64(b.params.M1T)
	b.ids = make([]int32, len(keyOf))
	for i := range b.ids {
		b.ids[i] = int32(i)
	}
	slices.SortFunc(b.ids, func(x, y int32) int {
		return cmp.Or(cmp.Compare(keyOf[x], keyOf[y]), cmp.Compare(x, y))
	})
	opens := func(k int) bool { return k == 0 || keyOf[b.ids[k]] != keyOf[b.ids[k-1]] }
	slots := 0
	for k := range b.ids {
		if opens(k) {
			slots++
		}
	}
	b.keys = make([]uint64, 0, slots)
	b.start = make([]int32, 0, slots+1)
	b.rest = make([]uint32, slots*(t-1))
	b.lead = make([]int32, m1t+1)
	b.slotOf = make([]int32, len(keyOf))
	for k, id := range b.ids {
		if opens(k) {
			key := keyOf[id]
			s := len(b.keys)
			b.keys = append(b.keys, key)
			b.start = append(b.start, int32(k))
			for i := t - 1; i > 0; i-- {
				b.rest[s*(t-1)+i-1] = uint32(key % m1t)
				key /= m1t
			}
			b.lead[key+1]++
		}
		b.slotOf[id] = int32(len(b.keys) - 1)
	}
	b.start = append(b.start, int32(len(b.ids)))
	for j := range m1t {
		b.lead[j+1] += b.lead[j]
	}
}

// Params returns the resolved parameters of the bank.
func (b *Bank) Params() Params { return b.params }

// NumFilters returns t·m^(1/t), the number of stored filter vectors.
func (b *Bank) NumFilters() int { return b.params.T * b.params.M1T }

// KeyOf returns the bucket key point id was stored under.
//
//fairnn:noalloc
func (b *Bank) KeyOf(id int32) uint64 { return b.keys[b.slotOf[id]] }

// SlotOf returns the slot of the bucket point id was stored in.
//
//fairnn:noalloc
func (b *Bank) SlotOf(id int32) int32 { return b.slotOf[id] }

// BucketAt returns the ids stored in slot s, in ascending order (owned by
// the bank).
//
//fairnn:noalloc
func (b *Bank) BucketAt(s int32) []int32 {
	lo, hi := b.start[s], b.start[s+1]
	return b.ids[lo:hi:hi]
}

// argmaxKey maps a point to the packed tuple (j_1, ..., j_t) of per-sub-
// structure argmax filters, with throwaway scratch.
func (b *Bank) argmaxKey(p vector.Vec) uint64 {
	return b.argmaxKeyInto(p, make([]float64, b.params.M1T))
}

// argmaxKeyInto is argmaxKey writing its m^(1/t) inner products through
// dots — one batched kernel call per sub-structure, so NewBank's point
// loop scores each sub-structure's filters as a block without per-point
// allocation. Ties keep the lowest filter index, as before.
func (b *Bank) argmaxKeyInto(p vector.Vec, dots []float64) uint64 {
	key := uint64(0)
	for i := 0; i < b.params.T; i++ {
		vector.DotBatch(p, b.vecs[i], dots)
		best, bestDot := 0, math.Inf(-1)
		for j, d := range dots {
			if d > bestDot {
				bestDot = d
				best = j
			}
		}
		key = key*uint64(b.params.M1T) + uint64(best)
	}
	return key
}

// QueryPlan is the result of evaluating all filters for a query: the
// non-empty buckets of I_1 × ... × I_t, where I_i are the filters
// sub-structure i admits.
type QueryPlan struct {
	// Keys are the packed keys of the non-empty candidate buckets, in
	// ascending order.
	Keys []uint64
	// Slots are the same buckets' slots (see Bank.BucketAt), parallel to
	// Keys.
	Slots []int32
	// Candidates is the total number of points across those buckets.
	Candidates int
	// FilterEvals is the number of inner products computed (t·m^(1/t)).
	FilterEvals int
	// Combos is |I_1|·...·|I_t|, the size of the cartesian product the
	// buckets are drawn from. It is computed, not enumerated.
	Combos int
	// Scanned is the number of stored buckets the enumeration checked:
	// those whose leading filter is admitted.
	Scanned int
}

// QueryScratch holds the reusable buffers of Bank.QueryInto: filter dot
// products, the admitted-filter marks, and the output key and slot lists.
// A zero value is ready to use; after warm-up a retained scratch makes
// bank queries allocation-free.
type QueryScratch struct {
	dots []float64
	// admit[i·M1T+j] reports whether sub-structure i admits filter j.
	admit []bool
	keys  []uint64
	slots []int32
}

// RetainedBytes reports the backing-array footprint of the scratch, for
// callers that pool scratch under a memory budget.
//
//fairnn:noalloc
func (s *QueryScratch) RetainedBytes() int {
	return 8*cap(s.dots) + cap(s.admit) + 8*cap(s.keys) + 4*cap(s.slots)
}

// Trim frees the backing arrays when RetainedBytes exceeds maxBytes; the
// scratch stays usable and regrows lazily on the next QueryInto.
//
//fairnn:noalloc
func (s *QueryScratch) Trim(maxBytes int) {
	if s.RetainedBytes() > maxBytes {
		*s = QueryScratch{}
	}
}

// Query evaluates all filters against q and enumerates candidate buckets
// with throwaway scratch. See QueryInto for the allocation-free variant.
func (b *Bank) Query(q vector.Vec) QueryPlan {
	var s QueryScratch
	return b.QueryInto(q, &s)
}

// QueryInto evaluates all filters against q and enumerates candidate
// buckets: sub-structure i admits filters with ⟨a_{i,j}, q⟩ ≥ α·Δ_{q,i} −
// f(α, ε). Only non-empty buckets are returned, in ascending key order
// (the order of a digit-by-digit walk over I_1 × ... × I_t). Rather than
// walk the product, the query checks the stored buckets whose leading
// filter is admitted and keeps those whose other filters are admitted
// too, so its cost is Scanned, not Combos. The returned plan's Keys and
// Slots alias the scratch and are valid until the scratch's next use.
//
//fairnn:noalloc
func (b *Bank) QueryInto(q vector.Vec, s *QueryScratch) QueryPlan {
	params := b.params
	t, m1t := params.T, params.M1T
	f := F(params.Alpha, params.Eps)
	if cap(s.dots) < m1t {
		s.dots = make([]float64, m1t)
	}
	dots := s.dots[:m1t]
	if cap(s.admit) < t*m1t {
		s.admit = make([]bool, t*m1t)
	}
	admit := s.admit[:t*m1t]
	plan := QueryPlan{FilterEvals: t * m1t, Combos: 1}
	for i := 0; i < t; i++ {
		// One batched kernel call per sub-structure (bit-identical to the
		// per-filter vector.Dot, so admitted filters are unchanged).
		vector.DotBatch(q, b.vecs[i], dots)
		maxDot := math.Inf(-1)
		for _, d := range dots {
			if d > maxDot {
				maxDot = d
			}
		}
		thr := params.Alpha*maxDot - f
		row := admit[i*m1t : (i+1)*m1t]
		admitted := 0
		for j, d := range dots {
			row[j] = d >= thr
			if row[j] {
				admitted++
			}
		}
		plan.Combos *= admitted
	}
	if plan.Combos == 0 {
		return plan
	}
	keys, slots := s.keys[:0], s.slots[:0]
	w := t - 1
	for j, ok := range admit[:m1t] {
		if !ok {
			continue
		}
		lo, hi := int(b.lead[j]), int(b.lead[j+1])
		plan.Scanned += hi - lo
	scan:
		for slot := lo; slot < hi; slot++ {
			for i, d := range b.rest[slot*w : slot*w+w] {
				if !admit[(i+1)*m1t+int(d)] {
					continue scan
				}
			}
			keys = append(keys, b.keys[slot])
			slots = append(slots, int32(slot))
			plan.Candidates += int(b.start[slot+1] - b.start[slot])
		}
	}
	s.keys, s.slots = keys, slots
	plan.Keys, plan.Slots = keys, slots
	return plan
}
