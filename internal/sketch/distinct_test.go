package sketch

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fairnn/internal/rng"
)

func mustFamily(t *testing.T, eps, delta float64, seed uint64) *Family {
	t.Helper()
	f, err := NewFamily(Params{Epsilon: eps, Delta: delta}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, Delta: 0.1},
		{Epsilon: 1, Delta: 0.1},
		{Epsilon: 0.5, Delta: 0},
		{Epsilon: 0.5, Delta: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
	if err := (Params{Epsilon: 0.5, Delta: 0.01}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestExactForSmallCounts(t *testing.T) {
	f := mustFamily(t, 0.5, 0.01, 1)
	s := f.NewSketch()
	for i := uint64(0); i < 20; i++ {
		s.Add(i)
		s.Add(i) // duplicates must not count
	}
	if got := s.Estimate(); got != 20 {
		t.Errorf("Estimate = %v, want exactly 20 (below row capacity)", got)
	}
}

func TestDuplicateInsensitivity(t *testing.T) {
	f := mustFamily(t, 0.5, 0.01, 2)
	a := f.NewSketch()
	b := f.NewSketch()
	for i := uint64(0); i < 5000; i++ {
		a.Add(i)
		b.Add(i)
		b.Add(i)
		b.Add(i % 100) // extra duplicates
	}
	if ea, eb := a.Estimate(), b.Estimate(); ea != eb {
		t.Errorf("duplicates changed estimate: %v vs %v", ea, eb)
	}
}

func TestAccuracyLargeStream(t *testing.T) {
	const n = 50000
	misses := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		f := mustFamily(t, 0.5, 0.05, uint64(trial+10))
		s := f.NewSketch()
		for i := uint64(0); i < n; i++ {
			s.Add(i * 2654435761) // spread-out ids
		}
		est := s.Estimate()
		if est < n*0.5 || est > n*1.5 {
			misses++
		}
	}
	if misses > 1 {
		t.Errorf("estimate outside (1±ε) range in %d/%d trials", misses, trials)
	}
}

func TestMergeEqualsWholeStream(t *testing.T) {
	// Sketch(A) merged with Sketch(B) must equal Sketch(A++B) exactly —
	// the segment-merge property Section 4 relies on.
	f := mustFamily(t, 0.5, 0.05, 3)
	whole := f.NewSketch()
	partA := f.NewSketch()
	partB := f.NewSketch()
	for i := uint64(0); i < 3000; i++ {
		whole.Add(i)
		if i%2 == 0 {
			partA.Add(i)
		} else {
			partB.Add(i)
		}
	}
	if err := partA.Merge(partB); err != nil {
		t.Fatal(err)
	}
	if got, want := partA.Estimate(), whole.Estimate(); got != want {
		t.Errorf("merged estimate %v != whole-stream estimate %v", got, want)
	}
	for w := range whole.rows {
		if len(whole.rows[w]) != len(partA.rows[w]) {
			t.Fatalf("row %d lengths differ", w)
		}
		for i := range whole.rows[w] {
			if whole.rows[w][i] != partA.rows[w][i] {
				t.Fatalf("row %d differs at %d", w, i)
			}
		}
	}
}

func TestMergePropertyQuick(t *testing.T) {
	f := mustFamily(t, 0.5, 0.1, 4)
	prop := func(a, b []uint32) bool {
		sa, sb, sw := f.NewSketch(), f.NewSketch(), f.NewSketch()
		for _, v := range a {
			sa.Add(uint64(v))
			sw.Add(uint64(v))
		}
		for _, v := range b {
			sb.Add(uint64(v))
			sw.Add(uint64(v))
		}
		if err := sa.Merge(sb); err != nil {
			return false
		}
		return sa.Estimate() == sw.Estimate()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFamilyMismatch(t *testing.T) {
	f1 := mustFamily(t, 0.5, 0.1, 5)
	f2 := mustFamily(t, 0.5, 0.1, 6)
	s1, s2 := f1.NewSketch(), f2.NewSketch()
	if err := s1.Merge(s2); err == nil {
		t.Error("merging across families must fail")
	}
}

func TestMergeNil(t *testing.T) {
	f := mustFamily(t, 0.5, 0.1, 7)
	s := f.NewSketch()
	if err := s.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v", err)
	}
}

func TestMergedEstimate(t *testing.T) {
	// Section 4's arm: reset one accumulator and merge the buckets'
	// sketches into it, skipping buckets without one. The inputs must
	// come out untouched, and share no row storage with the accumulator.
	f := mustFamily(t, 0.5, 0.05, 8)
	s1 := f.Sketch([]int32{1, 2, 3})
	s2 := f.Sketch([]int32{3, 4, 5})
	acc := f.NewSketch()
	for _, sk := range []*Distinct{s1, nil, s2} {
		if err := acc.Merge(sk); err != nil {
			t.Fatal(err)
		}
	}
	if est := acc.Estimate(); est != 5 {
		t.Errorf("merged estimate = %v, want 5 (small union is exact)", est)
	}
	acc.Add(100)
	if e1, e2 := s1.Estimate(), s2.Estimate(); e1 != 3 || e2 != 3 {
		t.Errorf("inputs changed by the merge: estimates %v, %v, want 3, 3", e1, e2)
	}
	acc.Reset()
	if est := acc.Estimate(); est != 0 {
		t.Errorf("estimate after Reset = %v, want 0", est)
	}
}

func TestOverlappingUnionEstimate(t *testing.T) {
	// The merged estimate must track |A ∪ B|, not |A| + |B|.
	f := mustFamily(t, 0.5, 0.05, 11)
	const n = 20000
	sa, sb := f.NewSketch(), f.NewSketch()
	for i := uint64(0); i < n; i++ {
		sa.Add(i)
		sb.Add(i + n/2) // 50% overlap; union = 1.5n
	}
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	est := sa.Estimate()
	want := 1.5 * n
	if math.Abs(est-want)/want > 0.5 {
		t.Errorf("union estimate %v, want ≈ %v", est, want)
	}
}

func TestMemoryWords(t *testing.T) {
	f := mustFamily(t, 0.5, 0.1, 12)
	s := f.NewSketch()
	if s.MemoryWords() != 0 {
		t.Error("empty sketch has nonzero memory")
	}
	s.Add(1)
	if s.MemoryWords() != f.Rows() {
		t.Errorf("one element should occupy one slot per row: %d vs %d", s.MemoryWords(), f.Rows())
	}
}

// TestAddIDsMatchesAdd checks the row-major kernel against the per-id
// reference, row for row: AddIDs must leave every row exactly as calling
// Add once per id does. Inputs are random id multisets (repeats and
// negative ids included) added to an empty sketch, to rows that Merge left
// partly filled, and to full rows that share values with the new ids; each
// case also runs from a tiny threshold (about one value expected to pass),
// so the τ-doubling pass runs on every row that ends with t values.
func TestAddIDsMatchesAdd(t *testing.T) {
	f := mustFamily(t, 0.5, 1/(6.0*1892*1892), 13)
	capacity := f.Capacity()
	r := rng.New(14)
	draw := func(n, span int) []int32 {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(r.Intn(span)) - int32(span/8)
		}
		return ids
	}
	prefills := map[string][]int32{
		"empty":   nil,
		"partial": draw(capacity/2, 1<<12),
		"full":    draw(5000, 1<<12),
	}
	for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 1197, 5000} {
		// A span of 2n/3 gives each size repeats; the full rows' span
		// covers it, so row values and new hashes coincide.
		ids := draw(n, max(2*n/3, 1))
		for name, pre := range prefills {
			for _, tiny := range []bool{false, true} {
				ref, got := f.NewSketch(), f.NewSketch()
				if pre != nil {
					seed := f.Sketch(pre)
					if err := ref.Merge(seed); err != nil {
						t.Fatal(err)
					}
					if err := got.Merge(seed); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range ids {
					ref.Add(uint64(uint32(id)))
				}
				if tiny {
					got.addIDs(ids, nil, 1)
				} else {
					got.AddIDs(ids, nil)
				}
				label := fmt.Sprintf("n=%d prefill=%s tiny=%v", n, name, tiny)
				for w := range ref.rows {
					if !slices.Equal(got.rows[w], ref.rows[w]) {
						t.Fatalf("%s: row %d holds %d values, want %d:\n got %v\nwant %v",
							label, w, len(got.rows[w]), len(ref.rows[w]), got.rows[w], ref.rows[w])
					}
				}
				if g, w := got.Estimate(), ref.Estimate(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: estimate %v, want %v", label, g, w)
				}
			}
		}
	}
}

// BenchmarkDistinctArm times the Section 4 arm's sketch at nnis-set's
// shape: 1197 distinct on-demand ids below n = 1892, δ = 1/(6n²) (Δ = 69
// rows) and t = 64, added to a reset sketch and estimated, either id by
// id through Add or row by row through AddIDs.
func BenchmarkDistinctArm(b *testing.B) {
	const n, distinct = 1892, 1197
	f, err := NewFamily(Params{Epsilon: 0.5, Delta: 1 / (6.0 * n * n)}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	if f.Rows() != 69 || f.Capacity() != 64 {
		b.Fatalf("shape Δ=%d t=%d, want 69 and 64", f.Rows(), f.Capacity())
	}
	ids := rng.New(8).Perm(n)[:distinct]
	slices.Sort(ids)
	s := f.NewSketch()
	b.Run("add", func(b *testing.B) {
		for b.Loop() {
			s.Reset()
			for _, id := range ids {
				s.Add(uint64(uint32(id)))
			}
			s.Estimate()
		}
	})
	b.Run("addids", func(b *testing.B) {
		var buf []uint64
		for b.Loop() {
			s.Reset()
			buf = s.AddIDs(ids, buf)
			s.Estimate()
		}
	})
}
