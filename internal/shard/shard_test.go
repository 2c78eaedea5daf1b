package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fairnn/internal/core"
	"fairnn/internal/lsh"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
	"fairnn/internal/stats"
)

// Test fixtures mirror internal/core's: a 1-D integer line under absolute
// distance isolates the sharded draw logic from LSH recall effects.

func intSpace() core.Space[int] {
	return core.Space[int]{Kind: core.Distance, Score: func(a, b int) float64 {
		return math.Abs(float64(a - b))
	}}
}

// allCollide puts every point in one bucket: perfect recall, so the
// uniformity tests measure the sharded draw, not LSH loss.
type allCollide struct{}

func (allCollide) New(r *rng.Source) lsh.Func[int] { return func(int) uint64 { return 0 } }

func (allCollide) CollisionProb(float64) float64 { return 1 }

// modFamily hashes ints by a per-function random modulus, giving every
// shard a multi-bucket profile (rejection loop, merged cursor and memo
// all do real work).
type modFamily struct{}

func (modFamily) New(r *rng.Source) lsh.Func[int] {
	m := uint64(r.Intn(7) + 3)
	return func(p int) uint64 { return uint64(p) % m }
}

func (modFamily) CollisionProb(float64) float64 { return 0.5 }

// chunkFamily buckets the line into fixed-width chunks — the realistic
// bucket-size profile used by the gauge.
type chunkFamily struct{ width int }

func (f chunkFamily) New(r *rng.Source) lsh.Func[int] {
	off := r.Intn(f.width)
	w := f.width
	return func(p int) uint64 { return uint64((p + off) / w) }
}

func (chunkFamily) CollisionProb(float64) float64 { return 0.9 }

func lineDataset(n int) []int {
	pts := make([]int, n)
	for i := range pts {
		pts[i] = i
	}
	return pts
}

func constParams(p lsh.Params) func(int) lsh.Params {
	return func(int) lsh.Params { return p }
}

// rangePart sends indexes below Cut to shard 0 and the rest to shard 1 —
// a deliberately unbalanced partition, so the ball mass differs sharply
// across shards and the weighted choice + rejection correction is load-
// bearing for the uniformity tests.
type rangePart struct{ cut int }

func (rangePart) Name() string { return "range" }

func (p rangePart) Assign(i, _, shards int) int {
	if i < p.cut {
		return 0
	}
	return 1 + (i-p.cut)%(shards-1)
}

func buildLine(t *testing.T, n int, radius float64, shards int, part Partitioner, seed uint64) *Sharded[int] {
	t.Helper()
	s, err := BuildConfig[int](intSpace(), allCollide{}, constParams(lsh.Params{K: 1, L: 1}), lineDataset(n), radius, core.IndependentOptions{}, Config{Shards: shards, Partitioner: part, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func domainInts(m int) []int32 {
	out := make([]int32, m)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// TestShardedUniformChiSquared is the acceptance gate: at S ∈ {2, 4, 8}
// the sharded output stream must be uniform over the union ball — the
// seeded chi-squared test must not reject, and the TV distance must sit
// near the sampling noise floor. Both balanced (round-robin) and
// unbalanced (range) partitions run: the unbalanced one fails without the
// weighted shard choice + rejection correction.
func TestShardedUniformChiSquared(t *testing.T) {
	const ballSize = 16
	const n = 256
	const reps = 12000
	parts := map[string]func(s int) Partitioner{
		"round-robin": func(int) Partitioner { return RoundRobin{} },
		"hash":        func(int) Partitioner { return Hash{Seed: 99} },
		"range":       func(int) Partitioner { return rangePart{cut: 200} },
	}
	for name, mk := range parts {
		for _, S := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/S=%d", name, S), func(t *testing.T) {
				s, err := BuildConfig[int](intSpace(), allCollide{}, constParams(lsh.Params{K: 1, L: 1}), lineDataset(n), ballSize-1, core.IndependentOptions{}, Config{Shards: S, Partitioner: mk(S), Seed: 400 + uint64(S)})
				if err != nil {
					t.Skipf("partition %s at S=%d: %v", name, S, err)
				}
				freq := stats.NewFrequency()
				for i := 0; i < reps; i++ {
					id, ok := s.Sample(0, nil)
					if !ok {
						t.Fatal("query failed with perfect recall")
					}
					if id < 0 || id >= ballSize {
						t.Fatalf("far point %d returned (ball is [0, %d))", id, ballSize)
					}
					freq.Observe(id)
				}
				domain := domainInts(ballSize)
				if tv := freq.TVFromUniform(domain); tv > 0.03 {
					t.Errorf("S=%d: TV = %v, want < 0.03", S, tv)
				}
				if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
					t.Errorf("S=%d: chi-square rejects uniformity: p = %v", S, p)
				}
			})
		}
	}
}

// TestShardedSmallShardNotStarved pins the halving floor: with an
// aggressive Σ budget and a sharply unbalanced partition, the
// small-estimate shard reaches k=1 many periods before the large one.
// It must be floored there — not dropped to k=0 — until the whole pool
// hits the all-ones floor, or every acceptance from the later periods
// would be uniform over the surviving shards only and the small shard's
// ball points would be starved (a bias the plain chi-squared test at
// balanced partitions cannot resolve).
func TestShardedSmallShardNotStarved(t *testing.T) {
	const ballSize = 8
	// Shard 0 gets points {0..3} (4 of the 8 ball points), shard 1 the
	// other 60; SigmaBudget=2 forces a halving every other round, so
	// shard 0 reaches k=1 while shard 1 still has many periods left.
	opts := core.IndependentOptions{SigmaBudget: 2}
	s, err := BuildConfig[int](intSpace(), allCollide{}, constParams(lsh.Params{K: 1, L: 1}), lineDataset(64), ballSize-1, opts, Config{Shards: 2, Partitioner: rangePart{cut: 4}, Seed: 977})
	if err != nil {
		t.Fatal(err)
	}
	freq := stats.NewFrequency()
	misses := 0
	const reps = 20000
	for i := 0; i < reps; i++ {
		id, ok := s.Sample(0, nil)
		if !ok {
			misses++ // the tiny Σ budget makes failed draws legitimate
			continue
		}
		freq.Observe(id)
	}
	if freq.Total() < reps/4 {
		t.Fatalf("only %d/%d draws succeeded — workload broken", freq.Total(), reps)
	}
	domain := domainInts(ballSize)
	if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
		small, large := 0, 0
		for id := int32(0); id < ballSize; id++ {
			if id < 4 {
				small += freq.Count(id)
			} else {
				large += freq.Count(id)
			}
		}
		t.Errorf("chi-square rejects uniformity (p = %v): small shard drew %d vs large shard %d of %d — the halving floor is broken", p, small, large, freq.Total())
	}
}

// TestShardedConsecutiveIndependence extends Definition 2's pair check to
// the sharded stream: consecutive outputs must follow the product law.
func TestShardedConsecutiveIndependence(t *testing.T) {
	const ballSize = 5
	s := buildLine(t, 40, ballSize-1, 4, RoundRobin{}, 431)
	joint := stats.NewFrequency()
	prev := int32(-1)
	const reps = 20000
	for i := 0; i < reps; i++ {
		id, ok := s.Sample(0, nil)
		if !ok {
			t.Fatal("query failed")
		}
		if prev >= 0 {
			joint.Observe(prev*ballSize + id)
		}
		prev = id
	}
	pairDomain := domainInts(ballSize * ballSize)
	if tv := joint.TVFromUniform(pairDomain); tv > 0.05 {
		t.Errorf("pair TV = %v, want < 0.05", tv)
	}
	if _, p := joint.ChiSquareUniform(pairDomain); p < 1e-4 {
		t.Errorf("chi-square rejects pair uniformity: p = %v", p)
	}
}

// TestShardedMatchesUnshardedDistribution pins the single-shard
// bit-compatibility contract: with the same seed, S=1 must replay the
// unsharded Independent's exact sample streams — Sample, SampleK and
// Samples all coincide call for call, because the build, the per-query
// stream seeds and the round arithmetic are all identical.
func TestShardedMatchesUnshardedDistribution(t *testing.T) {
	const n, radius, seed = 128, 20.0, 733
	params := lsh.Params{K: 1, L: 5}
	un, err := core.NewIndependent[int](intSpace(), modFamily{}, params, lineDataset(n), radius, core.IndependentOptions{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildConfig[int](intSpace(), modFamily{}, constParams(params), lineDataset(n), radius, core.IndependentOptions{}, Config{Shards: 1, Partitioner: RoundRobin{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := i % 96
		wantID, wantOK := un.Sample(q, nil)
		gotID, gotOK := sh.Sample(q, nil)
		if wantID != gotID || wantOK != gotOK {
			t.Fatalf("Sample(%d) #%d: sharded (%d, %v), unsharded (%d, %v)", q, i, gotID, gotOK, wantID, wantOK)
		}
	}
	for i := 0; i < 30; i++ {
		want := un.SampleK(5, 25, nil)
		got := sh.SampleK(5, 25, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("SampleK #%d: sharded %v, unsharded %v", i, got, want)
		}
	}
	var want, got []int32
	for id, err := range un.Samples(context.Background(), 7) {
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, id); len(want) == 20 {
			break
		}
	}
	for id, err := range sh.Samples(context.Background(), 7) {
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, id); len(got) == 20 {
			break
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Samples stream: sharded %v, unsharded %v", got, want)
	}
}

// TestShardedIDTranslation checks the shard→global id contract: every
// returned id is a global index whose point lies inside the ball, under
// both partitioners.
func TestShardedIDTranslation(t *testing.T) {
	const ballSize = 12
	for _, part := range []Partitioner{RoundRobin{}, Hash{Seed: 5}} {
		s := buildLine(t, 96, ballSize-1, 4, part, 809)
		for i := 0; i < 300; i++ {
			id, ok := s.Sample(0, nil)
			if !ok {
				t.Fatal("query failed")
			}
			if got := s.Point(id); got != int(id) {
				t.Fatalf("%s: Point(%d) = %d, want the global index itself", part.Name(), id, got)
			}
			if int(id) > ballSize-1 {
				t.Fatalf("%s: far global id %d", part.Name(), id)
			}
		}
	}
}

// TestShardedStats checks the per-shard observability contract:
// ShardRounds sums to Rounds, ShardEstimates carries every ŝ_j with
// SketchEstimate their union sum, and ShardChosen names a live shard.
func TestShardedStats(t *testing.T) {
	s := buildLine(t, 256, 15, 4, RoundRobin{}, 877)
	var st core.QueryStats
	id, ok := s.Sample(0, &st)
	if !ok {
		t.Fatal("query failed")
	}
	if len(st.ShardRounds) != 4 || len(st.ShardEstimates) != 4 {
		t.Fatalf("shard stat lengths = (%d, %d), want (4, 4)", len(st.ShardRounds), len(st.ShardEstimates))
	}
	roundSum := 0
	for _, r := range st.ShardRounds {
		roundSum += r
	}
	if roundSum != st.Rounds {
		t.Errorf("ShardRounds sum = %d, Rounds = %d", roundSum, st.Rounds)
	}
	estSum := 0.0
	for j, e := range st.ShardEstimates {
		if e <= 0 {
			t.Errorf("shard %d estimate = %v, want > 0 (allCollide recalls everything)", j, e)
		}
		estSum += e
	}
	if st.SketchEstimate != estSum {
		t.Errorf("SketchEstimate = %v, want the shard sum %v", st.SketchEstimate, estSum)
	}
	if st.ShardChosen < 0 || st.ShardChosen >= 4 {
		t.Errorf("ShardChosen = %d, want in [0, 4)", st.ShardChosen)
	}
	if want := int(id) % 4; st.ShardChosen != want {
		t.Errorf("ShardChosen = %d, but round-robin places id %d in shard %d", st.ShardChosen, id, want)
	}
	if !st.Found {
		t.Error("Found = false after a successful draw")
	}

	// Stats capacity is reused across queries: a second query on the same
	// struct must re-zero, not accumulate garbage.
	rounds := st.Rounds
	if _, ok := s.Sample(0, &st); !ok {
		t.Fatal("second query failed")
	}
	sum := 0
	for _, r := range st.ShardRounds {
		sum += r
	}
	if sum != st.Rounds-rounds {
		t.Errorf("second query ShardRounds sum = %d, want %d", sum, st.Rounds-rounds)
	}
}

// TestShardedNoNearPoint pins the empty-ball contract: ok=false from
// Sample, ErrNoSample from SampleContext, and a one-error stream.
func TestShardedNoNearPoint(t *testing.T) {
	s := buildLine(t, 64, 3, 4, RoundRobin{}, 911)
	if _, ok := s.Sample(100000, nil); ok {
		t.Fatal("Sample found a point with an empty ball")
	}
	if _, err := s.SampleContext(context.Background(), 100000, nil); !errors.Is(err, core.ErrNoSample) {
		t.Fatalf("SampleContext err = %v, want ErrNoSample", err)
	}
	n := 0
	for _, err := range s.Samples(context.Background(), 100000) {
		if !errors.Is(err, core.ErrNoSample) {
			t.Fatalf("stream err = %v, want ErrNoSample", err)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("stream yielded %d times, want exactly 1 error", n)
	}
	if got := s.SampleK(100000, 5, nil); len(got) != 0 {
		t.Fatalf("SampleK returned %v with an empty ball", got)
	}
}

// TestShardedContextCancel checks cancellation: a canceled context
// surfaces its error from SampleContext and ends a Samples stream.
func TestShardedContextCancel(t *testing.T) {
	s := buildLine(t, 64, 9, 2, RoundRobin{}, 919)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SampleContext(ctx, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SampleContext err = %v, want Canceled", err)
	}
	for _, err := range s.Samples(ctx, 0) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stream err = %v, want Canceled", err)
		}
	}
}

// TestBuildValidation pins the constructor's error contract.
func TestBuildValidation(t *testing.T) {
	pts := lineDataset(16)
	mk := func(shards int, part Partitioner, pts []int) error {
		_, err := BuildConfig[int](intSpace(), allCollide{}, constParams(lsh.Params{K: 1, L: 1}), pts, 5, core.IndependentOptions{}, Config{Shards: shards, Partitioner: part, Seed: 1})
		return err
	}
	if err := mk(0, RoundRobin{}, pts); err == nil {
		t.Error("shards=0 accepted")
	}
	if err := mk(4, RoundRobin{}, nil); err == nil {
		t.Error("empty point set accepted")
	}
	if err := mk(17, RoundRobin{}, pts); err == nil {
		t.Error("more shards than points accepted")
	}
	if err := mk(4, nil, pts); err != nil {
		t.Errorf("nil partitioner must default to round-robin, got %v", err)
	}
	// A two-shard range partition that leaves shard 1 empty must be
	// rejected, not silently built.
	if err := mk(2, rangePart{cut: 16}, pts); err == nil {
		t.Error("empty shard accepted")
	}
}

// TestShardedIntrospection covers Size/Shards/ShardSizes/PartitionerName
// and the scratch gauge.
func TestShardedIntrospection(t *testing.T) {
	s := buildLine(t, 100, 9, 4, RoundRobin{}, 929)
	if s.Size() != 100 {
		t.Errorf("Size = %d, want 100", s.Size())
	}
	if s.Shards() != 4 {
		t.Errorf("Shards = %d, want 4", s.Shards())
	}
	sizes := s.ShardSizes()
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	if total != 100 {
		t.Errorf("ShardSizes sum = %d, want 100", total)
	}
	if s.PartitionerName() != "round-robin" {
		t.Errorf("PartitionerName = %q", s.PartitionerName())
	}
	if s.Lambda() <= 0 {
		t.Errorf("Lambda = %d, want > 0", s.Lambda())
	}
	s.Sample(0, nil)
	if s.RetainedScratchBytes() <= 0 {
		t.Error("RetainedScratchBytes = 0 after a query")
	}
}

// TestShardedConcurrentStress is the -race gate: interleaved Sample,
// SampleKInto and Samples across goroutines on one shared sharded
// structure, with every output checked against the ball. GOMAXPROCS is
// raised so the parallel resolve fan-out actually runs multi-worker.
func TestShardedConcurrentStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const ballSize = 10
	s, err := BuildConfig[int](intSpace(), modFamily{}, constParams(lsh.Params{K: 1, L: 4}), lineDataset(128), ballSize-1, core.IndependentOptions{}, Config{Shards: 4, Partitioner: RoundRobin{}, Seed: 941})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]int32, 0, 16)
			var st core.QueryStats
			for i := 0; i < 100; i++ {
				if id, ok := s.Sample(0, &st); ok && int(id) > ballSize-1 {
					t.Errorf("far point %d returned", id)
					return
				}
				dst = s.SampleKInto(0, 8, dst, &st)
				for _, id := range dst {
					if int(id) > ballSize-1 {
						t.Errorf("far point %d in bulk draw", id)
						return
					}
				}
				n := 0
				for id, err := range s.Samples(context.Background(), g%64) {
					if err != nil {
						break
					}
					if int(id) > g%64+ballSize-1 || int(id) < g%64-(ballSize-1) {
						t.Errorf("far point %d streamed for query %d", id, g%64)
						return
					}
					if n++; n >= 4 {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedZeroAllocs extends the library's headline perf contract to
// the sharded path: after warm-up, steady-state Sample and SampleKInto
// across a 4-shard structure allocate nothing — sessions, plans and
// per-shard queriers are all pooled — on every stack a build composes
// without a resilience policy: the bare base, the telemetry layer, and
// telemetry with trace sampling on untraced queries.
func TestShardedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"obs", Config{Obs: obs.NewRegistry()}},
		{"obs+trace", Config{Obs: obs.NewRegistry(), TraceEveryN: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Shards, cfg.Partitioner, cfg.Seed = 4, RoundRobin{}, 953
			s := buildLineCfg(t, 64, 7, cfg)
			for i := 0; i < 50; i++ {
				s.Sample(0, nil)
			}
			if n := testing.AllocsPerRun(200, func() { s.Sample(0, nil) }); n != 0 {
				t.Errorf("Sharded.Sample allocs/op = %v, want 0", n)
			}
			dst := make([]int32, 0, 32)
			for i := 0; i < 20; i++ {
				dst = s.SampleKInto(0, 16, dst, nil)
			}
			if n := testing.AllocsPerRun(100, func() { dst = s.SampleKInto(0, 16, dst, nil) }); n != 0 {
				t.Errorf("Sharded.SampleKInto allocs/op = %v, want 0", n)
			}
		})
	}
}

// TestHashPartitionerSpread sanity-checks the hash partitioner's balance:
// over a large index range, shard loads must be near-even.
func TestHashPartitionerSpread(t *testing.T) {
	const n, shards = 100000, 8
	counts := make([]int, shards)
	h := Hash{Seed: 17}
	for i := 0; i < n; i++ {
		counts[h.Assign(i, n, shards)]++
	}
	want := float64(n) / shards
	for j, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("shard %d load %d, want ~%.0f", j, c, want)
		}
	}
}
