// Benchmarks regenerating every figure of the paper's evaluation section
// (at reduced Monte-Carlo scale — shapes, not absolute numbers), plus
// per-query micro-benchmarks for each sampler (the Q3 cost discussion) and
// ablation benches for the Section 4/5 design constants.
//
// Run with: go test -bench=. -benchmem
package fairnn_test

import (
	"sync"
	"testing"

	"fairnn"
	"fairnn/internal/dataset"
	"fairnn/internal/experiments"
)

// ---------------------------------------------------------------------------
// Shared fixtures (built once; construction is benchmarked separately).

type setFixture struct {
	sets    []fairnn.Set
	queries []int
}

var (
	setFixOnce sync.Once
	setFix     setFixture
)

// benchSets is a Last.FM-like workload small enough for per-query benches.
func benchSets() setFixture {
	setFixOnce.Do(func() {
		cfg := dataset.LastFMLike()
		cfg.Users = 600
		cfg.Communities = 12
		sets := dataset.Generate(cfg)
		setFix = setFixture{
			sets:    sets,
			queries: dataset.InterestingQueries(sets, 0.2, 20, 8, 1),
		}
	})
	return setFix
}

const benchRadius = 0.2

// newBenchSet builds one structure over the benchSets fixture at the
// shared radius and seed.
func newBenchSet(b *testing.B, opts ...fairnn.Option) fairnn.Sampler[fairnn.Set] {
	b.Helper()
	s, err := fairnn.NewSet(benchSets().sets, append([]fairnn.Option{fairnn.Radius(benchRadius), fairnn.WithSeed(7)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// newBenchFilter builds the Section 5 structure over a filter
// benchmark's planted ball.
func newBenchFilter(b *testing.B, w dataset.PlantedBall, opts ...fairnn.Option) fairnn.Sampler[fairnn.Vec] {
	b.Helper()
	fi, err := fairnn.NewVec(w.Points, append([]fairnn.Option{fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5), fairnn.WithSeed(9)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return fi
}

// ---------------------------------------------------------------------------
// Figure benches: one per table/figure of the evaluation section.

// BenchmarkFig1LastFM regenerates Figure 1 (top row): output distribution
// of standard vs fair LSH. The reported tv_std / tv_fair metrics are the
// mean per-query total-variation distances from uniform (paper shape:
// tv_std >> tv_fair).
func BenchmarkFig1LastFM(b *testing.B) {
	cfg := experiments.DefaultFig1LastFM()
	cfg.Dataset.Users = 400
	cfg.Dataset.Communities = 8
	cfg.Queries = 5
	cfg.Builds = 2
	cfg.RepsPerBuild = 80
	cfg.MinNeighbors = 10
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanTVStd, "tv_std")
	b.ReportMetric(last.MeanTVFair, "tv_fair")
	b.ReportMetric(last.BiasSlope(false), "slope_std")
}

// BenchmarkFig1MovieLens regenerates Figure 1 (bottom row).
func BenchmarkFig1MovieLens(b *testing.B) {
	cfg := experiments.DefaultFig1MovieLens()
	cfg.Dataset.Users = 400
	cfg.Dataset.Communities = 8
	cfg.Radius = 0.2
	cfg.Queries = 5
	cfg.Builds = 2
	cfg.RepsPerBuild = 60
	cfg.MinNeighbors = 10
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanTVStd, "tv_std")
	b.ReportMetric(last.MeanTVFair, "tv_fair")
}

// BenchmarkFig2Adversarial regenerates Figure 2: sampling probabilities of
// X, Y, Z under approximate-neighborhood sampling. Paper shape: P[X]/P[Y]
// far above 1 (the paper reports more than 50x).
func BenchmarkFig2Adversarial(b *testing.B) {
	cfg := experiments.DefaultFig2()
	cfg.Batches = 4
	cfg.BuildsPerBatch = 10
	cfg.RepsPerBuild = 30
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.X.Median, "p_x")
	b.ReportMetric(last.Y.Median, "p_y")
	b.ReportMetric(last.Z.Median, "p_z")
}

// BenchmarkFig3LastFM regenerates Figure 3 (top row): b_cr/b_r ratios.
func BenchmarkFig3LastFM(b *testing.B) {
	cfg := experiments.DefaultFig3LastFM()
	cfg.Dataset.Users = 400
	cfg.Dataset.Communities = 8
	cfg.Queries = 15
	cfg.MinNeighbors = 10
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	max := 0.0
	for _, c := range last.Cells {
		if c.MeanRatio > max {
			max = c.MeanRatio
		}
	}
	b.ReportMetric(max, "max_ratio")
}

// BenchmarkFig3MovieLens regenerates Figure 3 (bottom row). Paper shape:
// ratios far above the Last.FM ones (hundreds at r=0.25, c<=0.25).
func BenchmarkFig3MovieLens(b *testing.B) {
	cfg := experiments.DefaultFig3MovieLens()
	cfg.Dataset.Users = 500
	cfg.Dataset.Communities = 8
	cfg.Queries = 15
	cfg.MinNeighbors = 10
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	max := 0.0
	for _, c := range last.Cells {
		if c.MeanRatio > max {
			max = c.MeanRatio
		}
	}
	b.ReportMetric(max, "max_ratio")
}

// BenchmarkQ3CostTable regenerates the Q3 cost table end to end.
func BenchmarkQ3CostTable(b *testing.B) {
	cfg := experiments.DefaultCost()
	cfg.Dataset.Users = 400
	cfg.Dataset.Communities = 8
	cfg.Queries = 5
	cfg.RepsPerQuery = 5
	cfg.MinNeighbors = 10
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCost(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Per-query micro-benchmarks (the Q3 cost discussion, method by method).

func BenchmarkQueryStandardLSH(b *testing.B) {
	fix := benchSets()
	std := newBenchSet(b, fairnn.Algorithm(fairnn.Standard)).(*fairnn.SetStandard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		std.QueryRandomTableOrder(q, nil)
	}
}

func BenchmarkQueryNaiveFair(b *testing.B) {
	fix := benchSets()
	std := newBenchSet(b, fairnn.Algorithm(fairnn.Standard)).(*fairnn.SetStandard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		std.NaiveFairSample(q, nil)
	}
}

func BenchmarkQuerySamplerNNS(b *testing.B) {
	fix := benchSets()
	s := newBenchSet(b, fairnn.Algorithm(fairnn.NNS))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		s.Sample(q, nil)
	}
}

func BenchmarkQuerySampleRepeated(b *testing.B) {
	fix := benchSets()
	s := newBenchSet(b, fairnn.Algorithm(fairnn.NNS)).(*fairnn.SetSampler)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		s.SampleRepeated(q, nil)
	}
}

func BenchmarkQueryIndependentNNIS(b *testing.B) {
	fix := benchSets()
	d := newBenchSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		d.Sample(q, nil)
	}
}

// BenchmarkQueryIndependentNNISParallel drives the Section 4 sampler from
// all available goroutines against one shared structure — the concurrent
// query contract introduced with the signature engine.
func BenchmarkQueryIndependentNNISParallel(b *testing.B) {
	fix := benchSets()
	d := newBenchSet(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := fix.sets[fix.queries[i%len(fix.queries)]]
			d.Sample(q, nil)
			i++
		}
	})
}

// BenchmarkQueryIndependentSampleK100 amortizes one resolve+estimate over
// 100 independent draws (the Section 4 plan-reuse path).
func BenchmarkQueryIndependentSampleK100(b *testing.B) {
	fix := benchSets()
	d := newBenchSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		d.SampleK(q, 100, nil)
	}
}

// BenchmarkQueryIndependentSampleK100Into is the zero-allocation bulk
// variant: the output buffer is recycled across iterations, so the
// steady state allocates nothing at all.
func BenchmarkQueryIndependentSampleK100Into(b *testing.B) {
	fix := benchSets()
	d := newBenchSet(b)
	dst := make([]int32, 0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		dst = d.SampleKInto(q, 100, dst, nil)
	}
}

func BenchmarkQueryExactScan(b *testing.B) {
	fix := benchSets()
	e := newBenchSet(b, fairnn.Algorithm(fairnn.Exact))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fix.sets[fix.queries[i%len(fix.queries)]]
		e.Sample(q, nil)
	}
}

func BenchmarkQueryFilterIndependent(b *testing.B) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 1000, Dim: 32, Alpha: 0.8, Beta: 0.5, BallSize: 20, MidSize: 60, Seed: 5,
	})
	fi := newBenchFilter(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi.Sample(w.Query, nil)
	}
}

func BenchmarkQueryFilterSampleK100(b *testing.B) {
	// The plan-reuse path: 100 independent draws amortize one plan.
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 1000, Dim: 32, Alpha: 0.8, Beta: 0.5, BallSize: 20, MidSize: 60, Seed: 5,
	})
	fi := newBenchFilter(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi.SampleK(w.Query, 100, nil)
	}
}

// ---------------------------------------------------------------------------
// Construction benchmarks (Theorem 1/2 preprocessing costs).

func BenchmarkBuildSampler(b *testing.B) {
	benchSets() // build the fixture outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newBenchSet(b, fairnn.Algorithm(fairnn.NNS))
	}
}

func BenchmarkBuildIndependent(b *testing.B) {
	benchSets() // build the fixture outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newBenchSet(b)
	}
}

func BenchmarkBuildFilterIndependent(b *testing.B) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 1000, Dim: 32, Alpha: 0.8, Beta: 0.5, BallSize: 20, MidSize: 60, Seed: 5,
	})
	for i := 0; i < b.N; i++ {
		newBenchFilter(b, w)
	}
}

// ---------------------------------------------------------------------------
// Ablations: the Section 4/5 design constants.

// BenchmarkAblationLambda sweeps the Section 4 segment cap λ: smaller λ
// means higher per-segment acceptance but more clamping risk; larger λ
// wastes rounds.
func BenchmarkAblationLambda(b *testing.B) {
	fix := benchSets()
	for _, lambda := range []int{4, 8, 16, 32, 64} {
		b.Run(benchName("lambda", lambda), func(b *testing.B) {
			d := newBenchSet(b, fairnn.WithIndependentOptions(fairnn.IndependentOptions{Lambda: lambda}))
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st fairnn.QueryStats
				q := fix.sets[fix.queries[i%len(fix.queries)]]
				d.Sample(q, &st)
				rounds += st.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
		})
	}
}

// BenchmarkAblationSigma sweeps the Section 4 failure budget Σ.
func BenchmarkAblationSigma(b *testing.B) {
	fix := benchSets()
	for _, sigma := range []int{16, 64, 256} {
		b.Run(benchName("sigma", sigma), func(b *testing.B) {
			d := newBenchSet(b, fairnn.WithIndependentOptions(fairnn.IndependentOptions{SigmaBudget: sigma}))
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st fairnn.QueryStats
				q := fix.sets[fix.queries[i%len(fix.queries)]]
				d.Sample(q, &st)
				rounds += st.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
		})
	}
}

// BenchmarkAblationTensoring sweeps the Section 5 tensoring degree t:
// larger t shrinks the filter-evaluation cost (t·m^(1/t) vectors) at the
// price of a lower per-bank success probability.
func BenchmarkAblationTensoring(b *testing.B) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 1000, Dim: 32, Alpha: 0.8, Beta: 0.5, BallSize: 20, MidSize: 60, Seed: 5,
	})
	for _, t := range []int{1, 2, 3, 4} {
		b.Run(benchName("t", t), func(b *testing.B) {
			fi := newBenchFilter(b, w, fairnn.WithVecOptions(fairnn.VecOptions{T: t}))
			var evals int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st fairnn.QueryStats
				fi.Sample(w.Query, &st)
				evals += st.FilterEvals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "filter_evals/query")
		})
	}
}

// BenchmarkAblationSketchEpsilon sweeps the count-distinct accuracy: a
// coarser sketch is smaller and faster to merge but starts the Section 4
// search at a worse segment count.
func BenchmarkAblationSketchEpsilon(b *testing.B) {
	fix := benchSets()
	for _, epsMilli := range []int{250, 500, 900} {
		b.Run(benchName("eps_milli", epsMilli), func(b *testing.B) {
			d := newBenchSet(b, fairnn.WithIndependentOptions(fairnn.IndependentOptions{SketchEpsilon: float64(epsMilli) / 1000}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := fix.sets[fix.queries[i%len(fix.queries)]]
				d.Sample(q, nil)
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkScalingSection5 regenerates the Theorem 3 scaling check at
// reduced size, reporting the fitted growth exponent of the per-query
// candidate work (theory: ρ < 1).
func BenchmarkScalingSection5(b *testing.B) {
	cfg := experiments.DefaultScaling()
	cfg.Ns = []int{500, 1000, 2000}
	cfg.QueriesPerN = 10
	var last *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScaling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.CandidateExponent, "exponent")
	b.ReportMetric(last.Rho, "rho_theory")
}
