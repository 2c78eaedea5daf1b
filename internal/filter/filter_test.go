package filter

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"fairnn/internal/dataset"
	"fairnn/internal/rng"
	"fairnn/internal/vector"
)

func TestF(t *testing.T) {
	// f(α, ε) = sqrt(2(1-α²) ln(1/ε)).
	got := F(0.8, 0.1)
	want := math.Sqrt(2 * (1 - 0.64) * math.Log(10))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("F = %v, want %v", got, want)
	}
	if F(0.8, 1) != 0 {
		t.Errorf("F(·, 1) should be 0")
	}
}

func TestTensoring(t *testing.T) {
	cases := map[float64]int{0.0: 1, 0.5: 2, 0.8: 3, 0.9: 6}
	for alpha, want := range cases {
		if got := Tensoring(alpha); got != want {
			t.Errorf("Tensoring(%v) = %d, want %d", alpha, got, want)
		}
	}
}

func TestRho(t *testing.T) {
	// ρ = (1-α²)(1-β²)/(1-αβ)².
	got := Rho(0.8, 0.5)
	want := (1 - 0.64) * (1 - 0.25) / ((1 - 0.4) * (1 - 0.4))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Rho = %v, want %v", got, want)
	}
	if Rho(0.9, 0.1) >= 1 {
		t.Error("rho should be < 1 for a sensible gap")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Alpha: 1, Beta: 0.5, Eps: 0.1},
		{Alpha: 0.5, Beta: 0.6, Eps: 0.1},
		{Alpha: 0.5, Beta: -1.5, Eps: 0.1},
		{Alpha: 0.5, Beta: 0.2, Eps: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", p)
		}
	}
	if err := (Params{Alpha: 0.8, Beta: 0.5, Eps: 0.1}).Validate(); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
}

func TestBankStoresEachPointOnce(t *testing.T) {
	r := rng.New(1)
	points := make([]vector.Vec, 200)
	for i := range points {
		points[i] = vector.RandomUnit(r, 16)
	}
	b, err := NewBank(points, Params{Alpha: 0.8, Beta: 0.3, Eps: 0.1}, r)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	counts := make(map[int32]int)
	for s := range b.keys {
		ids := b.BucketAt(int32(s))
		if len(ids) == 0 {
			t.Fatalf("slot %d is empty", s)
		}
		if s > 0 && b.keys[s-1] >= b.keys[s] {
			t.Fatalf("keys not strictly ascending at slot %d", s)
		}
		if !slices.IsSorted(ids) {
			t.Fatalf("slot %d ids %v not ascending", s, ids)
		}
		for _, id := range ids {
			counts[id]++
			total++
			// SlotOf and KeyOf must agree with the bucket the point is in.
			if b.SlotOf(id) != int32(s) || b.KeyOf(id) != b.keys[s] {
				t.Fatalf("point %d: SlotOf %d, KeyOf %d; stored in slot %d, key %d", id, b.SlotOf(id), b.KeyOf(id), s, b.keys[s])
			}
		}
	}
	if total != len(points) {
		t.Fatalf("bank stores %d references, want %d (linear space)", total, len(points))
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("point %d stored %d times", id, c)
		}
	}
	// Every slot's leading digit range and stored digits repack its key.
	p := b.Params()
	for j := 0; j < p.M1T; j++ {
		for s := int(b.lead[j]); s < int(b.lead[j+1]); s++ {
			key := uint64(j)
			for _, d := range b.rest[s*(p.T-1) : (s+1)*(p.T-1)] {
				key = key*uint64(p.M1T) + uint64(d)
			}
			if key != b.keys[s] {
				t.Fatalf("slot %d digits repack to %d, key is %d", s, key, b.keys[s])
			}
		}
	}
	if int(b.lead[p.M1T]) != len(b.keys) {
		t.Fatalf("leading-digit ranges cover %d slots, want %d", b.lead[p.M1T], len(b.keys))
	}
}

func TestBankEmptyPoints(t *testing.T) {
	if _, err := NewBank(nil, Params{Alpha: 0.8, Beta: 0.3, Eps: 0.1}, rng.New(1)); err == nil {
		t.Fatal("empty point set accepted")
	}
}

func TestQueryRecallsExactMatch(t *testing.T) {
	// The bucket of the query itself is always above threshold (its filter
	// scores Δ_{q,i} ≥ αΔ_{q,i} - f), so an indexed copy of q is found.
	r := rng.New(2)
	points := make([]vector.Vec, 100)
	for i := range points {
		points[i] = vector.RandomUnit(r, 16)
	}
	q := points[17]
	b, err := NewBank(points, Params{Alpha: 0.8, Beta: 0.3, Eps: 0.1}, r)
	if err != nil {
		t.Fatal(err)
	}
	plan := b.Query(q)
	found := false
	for _, slot := range plan.Slots {
		for _, id := range b.BucketAt(slot) {
			if id == 17 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("query point's own bucket not enumerated")
	}
	if plan.FilterEvals != b.NumFilters() {
		t.Errorf("FilterEvals = %d, want %d", plan.FilterEvals, b.NumFilters())
	}
	if plan.Candidates == 0 || plan.Combos == 0 {
		t.Errorf("empty plan: %+v", plan)
	}
}

func TestQueryNearRecallStatistical(t *testing.T) {
	// Points planted at inner product ≥ α are recalled by a single bank with
	// noticeable probability, and far points dominate misses (Lemma 1/3
	// behaviourally: recall(near) substantially above per-point fraction of
	// far candidates enumerated).
	r := rng.New(3)
	const dim = 24
	const n = 400
	q := vector.RandomUnit(r, dim)
	points := make([]vector.Vec, n)
	for i := range points {
		if i < 40 {
			points[i] = vector.UnitWithInnerProduct(r, q, 0.85)
		} else {
			points[i] = vector.RandomUnit(r, dim)
		}
	}
	const banks = 20
	nearHits, farCands := 0, 0
	for bidx := 0; bidx < banks; bidx++ {
		b, err := NewBank(points, Params{Alpha: 0.8, Beta: 0.3, Eps: 0.05}, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		plan := b.Query(q)
		inPlan := map[int32]bool{}
		for _, slot := range plan.Slots {
			for _, id := range b.BucketAt(slot) {
				inPlan[id] = true
			}
		}
		for i := 0; i < 40; i++ {
			if inPlan[int32(i)] {
				nearHits++
			}
		}
		for i := 40; i < n; i++ {
			if inPlan[int32(i)] {
				farCands++
			}
		}
	}
	nearRecall := float64(nearHits) / float64(40*banks)
	farRate := float64(farCands) / float64((n-40)*banks)
	if nearRecall < 0.25 {
		t.Errorf("near recall per bank %v too low", nearRecall)
	}
	if farRate > nearRecall/2 {
		t.Errorf("far rate %v not well below near recall %v", farRate, nearRecall)
	}
}

func TestFiltersPerSub(t *testing.T) {
	m1t := FiltersPerSub(1000, 0.8, 0.5)
	if m1t < 2 {
		t.Fatalf("m1t = %d", m1t)
	}
	// Larger n should not shrink the filter count.
	if FiltersPerSub(100000, 0.8, 0.5) < m1t {
		t.Error("FiltersPerSub not monotone in n")
	}
}

func TestBankDeterministicKeys(t *testing.T) {
	r := rng.New(4)
	points := make([]vector.Vec, 50)
	for i := range points {
		points[i] = vector.RandomUnit(r, 8)
	}
	b, err := NewBank(points, Params{Alpha: 0.7, Beta: 0.2, Eps: 0.1}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range points {
		if b.argmaxKey(p) != b.KeyOf(int32(id)) {
			t.Fatalf("argmaxKey not deterministic for %d", id)
		}
	}
}

// odometerQuery is the reference enumeration QueryInto replaced: it walks
// every tuple of I_1 × ... × I_t, last digit fastest, and looks each packed
// key up in buckets. It returns the non-empty keys in walk order, their
// total size, the product size, and the smallest |I_i|.
func odometerQuery(b *Bank, buckets map[uint64][]int32, q vector.Vec) (keys []uint64, candidates, combos, minSet int) {
	p := b.params
	f := F(p.Alpha, p.Eps)
	dots := make([]float64, p.M1T)
	idxSets := make([][]int32, p.T)
	combos, minSet = 1, p.M1T
	for i := range idxSets {
		vector.DotBatch(q, b.vecs[i], dots)
		maxDot := math.Inf(-1)
		for _, d := range dots {
			if d > maxDot {
				maxDot = d
			}
		}
		thr := p.Alpha*maxDot - f
		for j, d := range dots {
			if d >= thr {
				idxSets[i] = append(idxSets[i], int32(j))
			}
		}
		combos *= len(idxSets[i])
		minSet = min(minSet, len(idxSets[i]))
	}
	if combos == 0 {
		return nil, 0, 0, 0
	}
	counters := make([]int, p.T)
	for {
		key := uint64(0)
		for i, c := range counters {
			key = key*uint64(p.M1T) + uint64(idxSets[i][c])
		}
		if ids := buckets[key]; len(ids) > 0 {
			keys = append(keys, key)
			candidates += len(ids)
		}
		i := p.T - 1
		for ; i >= 0; i-- {
			counters[i]++
			if counters[i] < len(idxSets[i]) {
				break
			}
			counters[i] = 0
		}
		if i < 0 {
			return keys, candidates, combos, minSet
		}
	}
}

// TestQueryIntoMatchesOdometer checks the slot scan against the odometer
// walk over the admitted cartesian product, with buckets rebuilt from each
// point's argmax key: same keys in the same order, the same buckets, and
// the same Candidates, Combos and FilterEvals. It covers T ∈ {1, 2, 3, 6}
// under default and overridden geometries, with indexed points, planted-
// ball points and random vectors as queries.
func TestQueryIntoMatchesOdometer(t *testing.T) {
	cases := []struct {
		name   string
		params Params
		wantT  int
	}{
		{"T1", Params{Alpha: 0.5, Beta: 0.2, Eps: 0.1, T: 1, M1T: 40}, 1},
		{"T2-default", Params{Alpha: 0.5, Beta: 0.2, Eps: 0.1}, 2},
		{"T3-default", Params{Alpha: 0.8, Beta: 0.5, Eps: 0.1}, 3},
		{"T3-M1T20", Params{Alpha: 0.8, Beta: 0.5, Eps: 0.1, M1T: 20}, 3},
		{"T3-narrow", Params{Alpha: 0.8, Beta: 0.5, Eps: 0.99}, 3},
		{"T6-default", Params{Alpha: 0.9, Beta: 0.3, Eps: 0.1}, 6},
		{"T6-M1T5", Params{Alpha: 0.9, Beta: 0.3, Eps: 0.5, T: 6, M1T: 5}, 6},
	}
	singletons := 0
	var s QueryScratch
	for ci, c := range cases {
		w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
			N: 300, Dim: 24, Alpha: c.params.Alpha, Beta: c.params.Beta,
			BallSize: 20, MidSize: 40, Seed: uint64(500 + ci),
		})
		b, err := NewBank(w.Points, c.params, rng.New(uint64(600+ci)))
		if err != nil {
			t.Fatal(err)
		}
		if b.Params().T != c.wantT {
			t.Fatalf("%s: resolved T = %d, want %d", c.name, b.Params().T, c.wantT)
		}
		buckets := map[uint64][]int32{}
		for id, p := range w.Points {
			key := b.argmaxKey(p)
			buckets[key] = append(buckets[key], int32(id))
		}
		queries := []vector.Vec{w.Query}
		for _, id := range []int{0, 7, 150, 299} {
			queries = append(queries, w.Points[id])
		}
		for _, id := range w.BallIDs[:4] {
			queries = append(queries, w.Points[id])
		}
		r := rng.New(uint64(700 + ci))
		for range 5 {
			queries = append(queries, vector.RandomUnit(r, 24))
		}
		for qi, q := range queries {
			keys, cands, combos, minSet := odometerQuery(b, buckets, q)
			if minSet == 1 {
				singletons++
			}
			got := b.QueryInto(q, &s)
			if !slices.Equal(got.Keys, keys) {
				t.Fatalf("%s query %d: keys %v, odometer %v", c.name, qi, got.Keys, keys)
			}
			if got.Candidates != cands || got.Combos != combos || got.FilterEvals != b.NumFilters() {
				t.Fatalf("%s query %d: (candidates, combos, evals) = (%d, %d, %d), odometer (%d, %d), want evals %d",
					c.name, qi, got.Candidates, got.Combos, got.FilterEvals, cands, combos, b.NumFilters())
			}
			if len(got.Slots) != len(keys) || got.Scanned > len(b.keys) || got.Scanned < len(keys) {
				t.Fatalf("%s query %d: %d slots, %d scanned, for %d keys of %d stored", c.name, qi, len(got.Slots), got.Scanned, len(keys), len(b.keys))
			}
			for k, slot := range got.Slots {
				if !slices.Equal(b.BucketAt(slot), buckets[keys[k]]) {
					t.Fatalf("%s query %d: slot %d holds %v, bucket %d is %v", c.name, qi, slot, b.BucketAt(slot), keys[k], buckets[keys[k]])
				}
			}
		}
	}
	if singletons == 0 {
		t.Error("no query had a singleton admitted set; the narrow cases lost their coverage")
	}
}

func TestNewBankRejectsKeyOverflow(t *testing.T) {
	r := rng.New(9)
	points := make([]vector.Vec, 10)
	for i := range points {
		points[i] = vector.RandomUnit(r, 8)
	}
	// 300^8 ≈ 2^66: distinct argmax tuples would share a bucket.
	_, err := NewBank(points, Params{Alpha: 0.8, Beta: 0.5, Eps: 0.1, T: 8, M1T: 300}, r)
	if !errors.Is(err, ErrKeySpace) || !strings.Contains(err.Error(), "T=8, M1T=300") {
		t.Fatalf("T=8, M1T=300: err = %v, want ErrKeySpace naming T and M1T", err)
	}
	// The default geometry at n = 10⁵, α = 0.9, β = 0.8 needs about 2^76.
	p := Params{Alpha: 0.9, Beta: 0.8, Eps: 0.1}.resolve(100_000)
	if err := p.checkKeySpace(); p.T != 6 || !errors.Is(err, ErrKeySpace) {
		t.Errorf("default n=1e5 α=0.9 β=0.8 (T=%d, M1T=%d): err = %v, want ErrKeySpace", p.T, p.M1T, err)
	}
	for _, c := range []struct {
		t, m1t int
		ok     bool
	}{
		{3, 122, true}, {1, 1 << 40, true}, {62, 2, true}, {63, 2, false},
		{9, 127, true}, {9, 128, false}, {2, 3_037_000_499, true}, {2, 3_037_000_500, false},
	} {
		err := Params{T: c.t, M1T: c.m1t}.checkKeySpace()
		if (err == nil) != c.ok {
			t.Errorf("T=%d, M1T=%d: err = %v, want ok = %v", c.t, c.m1t, err, c.ok)
		}
	}
}

// BenchmarkBankQueryInto times the bucket enumeration of one query over
// 15 banks at the filter-vec shape: a planted ball of n = 1000 points at
// d = 128, α = 0.8, β = 0.5, default geometry (T = 3, M1T = 122). It
// reports the non-empty buckets returned and the stored buckets scanned
// per 15-bank query.
func BenchmarkBankQueryInto(b *testing.B) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 1000, Dim: 128, Alpha: 0.8, Beta: 0.5, BallSize: 64, MidSize: 256, Seed: 1,
	})
	r := rng.New(2)
	banks := make([]*Bank, 15)
	for i := range banks {
		bank, err := NewBank(w.Points, Params{Alpha: 0.8, Beta: 0.5, Eps: 0.1}, r.Split())
		if err != nil {
			b.Fatal(err)
		}
		banks[i] = bank
	}
	var s QueryScratch
	ops, keys, scanned := 0, 0, 0
	for b.Loop() {
		ops++
		for _, bank := range banks {
			p := bank.QueryInto(w.Query, &s)
			keys += len(p.Keys)
			scanned += p.Scanned
		}
	}
	b.ReportMetric(float64(keys)/float64(ops), "keys/op")
	b.ReportMetric(float64(scanned)/float64(ops), "slots/op")
}
