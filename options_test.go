package fairnn_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fairnn"
	"fairnn/internal/dataset"
)

// drawN pulls n Sample ids from a sampler (skipping misses) for stream
// comparisons.
func drawN[P any](s fairnn.Sampler[P], q P, n int) []int32 {
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if id, ok := s.Sample(q, nil); ok {
			out = append(out, id)
		} else {
			out = append(out, -1)
		}
	}
	return out
}

// TestBuilderMatchesLegacySetConstructors pins the builder's
// bit-compatibility contract: NewSet with options must produce the same
// structure — hence the identical same-seed sample stream — as the legacy
// constructor it delegates to.
func TestBuilderMatchesLegacySetConstructors(t *testing.T) {
	sets, q := smallSets()
	type pair struct {
		name    string
		legacy  func() (fairnn.Sampler[fairnn.Set], error)
		builder func() (fairnn.Sampler[fairnn.Set], error)
	}
	pairs := []pair{
		{
			name: "NNIS",
			legacy: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSetIndependent(sets, 0.6, fairnn.IndependentOptions{}, fairnn.Config{Seed: 23})
			},
			builder: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNIS), fairnn.WithSeed(23))
			},
		},
		{
			name: "NNS",
			legacy: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSetSampler(sets, 0.6, fairnn.Config{Seed: 29, K: 4, L: 7})
			},
			builder: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(29), fairnn.WithParams(4, 7))
			},
		},
		{
			name: "Exact",
			legacy: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSetExact(sets, 0.6, 37), nil
			},
			builder: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Exact), fairnn.WithSeed(37))
			},
		},
		{
			name: "Weighted",
			legacy: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSetWeighted(sets, 0.6, func(s float64) float64 { return s }, 1, fairnn.IndependentOptions{}, fairnn.Config{Seed: 41})
			},
			builder: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Weighted),
					fairnn.WithWeight(func(s float64) float64 { return s }, 1), fairnn.WithSeed(41))
			},
		},
		{
			name: "MultiRadius",
			legacy: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSetMultiRadius(sets, []float64{0.3, 0.6, 0.95}, fairnn.IndependentOptions{}, fairnn.Config{Seed: 43})
			},
			builder: func() (fairnn.Sampler[fairnn.Set], error) {
				return fairnn.NewSet(sets, fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(0.3, 0.6, 0.95), fairnn.WithSeed(43))
			},
		},
	}
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.legacy()
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.builder()
			if err != nil {
				t.Fatal(err)
			}
			got, want := drawN(b, q, 50), drawN(a, q, 50)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("draw %d: builder = %d, legacy = %d — streams diverged", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBuilderStandardMatchesLegacyShape covers the Standard baseline
// separately: its build shuffles bucket contents in map-iteration order,
// so two same-seed instances are distribution- but not bit-identical
// (a pre-existing property of the legacy constructor). The builder must
// still resolve identical LSH parameters and sample only near points.
func TestBuilderStandardMatchesLegacyShape(t *testing.T) {
	sets, q := smallSets()
	legacy, err := fairnn.NewSetStandard(sets, 0.6, fairnn.Config{Seed: 31, Recall: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	built, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Standard), fairnn.WithSeed(31), fairnn.WithRecall(0.95))
	if err != nil {
		t.Fatal(err)
	}
	std := built.(*fairnn.SetStandard)
	if std.Params() != legacy.Params() {
		t.Fatalf("builder params %+v, legacy %+v", std.Params(), legacy.Params())
	}
	for i := 0; i < 30; i++ {
		id, ok := built.Sample(q, nil)
		if !ok {
			t.Fatal("naive fair sample found nothing")
		}
		if fairnn.Jaccard(q, std.Point(id)) < 0.6 {
			t.Fatalf("sampled far point %d", id)
		}
	}
}

// TestBuilderMatchesLegacyVec pins the vector twin for the Section 4 and
// Section 5 constructions.
func TestBuilderMatchesLegacyVec(t *testing.T) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 400, Dim: 24, Alpha: 0.8, Beta: 0.4, BallSize: 12, MidSize: 40, Seed: 9,
	})
	legacyFi, err := fairnn.NewVecIndependent(w.Points, 0.8, 0.4, fairnn.VecOptions{}, 47)
	if err != nil {
		t.Fatal(err)
	}
	builtFi, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.4), fairnn.WithSeed(47))
	if err != nil {
		t.Fatal(err)
	}
	got, want := drawN[fairnn.Vec](builtFi, w.Query, 40), drawN[fairnn.Vec](legacyFi, w.Query, 40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filter draw %d: builder = %d, legacy = %d", i, got[i], want[i])
		}
	}

	legacyNN, err := fairnn.NewVecSamplerIndependent(w.Points, 0.8, fairnn.IndependentOptions{}, fairnn.VecConfig{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	builtNN, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	got, want = drawN[fairnn.Vec](builtNN, w.Query, 40), drawN[fairnn.Vec](legacyNN, w.Query, 40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NNIS draw %d: builder = %d, legacy = %d", i, got[i], want[i])
		}
	}
}

// TestBuilderTypedErrors pins the typed validation errors.
func TestBuilderTypedErrors(t *testing.T) {
	sets, _ := smallSets()
	if _, err := fairnn.NewSet(nil, fairnn.Radius(0.5)); !errors.Is(err, fairnn.ErrNoPoints) {
		t.Errorf("empty points err = %v, want ErrNoPoints", err)
	}
	if _, err := fairnn.NewSet(sets); !errors.Is(err, fairnn.ErrBadRadius) {
		t.Errorf("missing radius err = %v, want ErrBadRadius", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(1.5)); !errors.Is(err, fairnn.ErrBadRadius) {
		t.Errorf("radius 1.5 err = %v, want ErrBadRadius", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Weighted)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("weighted without weight err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Filter)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("set Filter err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithParams(0, 3)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("WithParams(0, 3) err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Algorithm(fairnn.MultiRadius)); !errors.Is(err, fairnn.ErrBadRadius) {
		t.Errorf("MultiRadius without radii err = %v, want ErrBadRadius", err)
	}
	// No option is silently ignored: cross-type and cross-algorithm
	// combinations are rejected symmetrically.
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithBeta(0.2)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("set WithBeta err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithRadii(0.3, 0.6)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("WithRadii outside MultiRadius err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(0.3)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("Radius with MultiRadius err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithWeight(func(float64) float64 { return 1 }, 1)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("WithWeight outside Weighted err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewVec([]fairnn.Vec{{1, 0}}, fairnn.Radius(0.5), fairnn.WithBeta(0.2)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("vec WithBeta outside Filter err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewVec([]fairnn.Vec{{1, 0}}, fairnn.Radius(0.5), fairnn.WithRadii(0.3)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("vec WithRadii err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.NNS), fairnn.WithIndependentOptions(fairnn.IndependentOptions{Lambda: 8})); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("NNS WithIndependentOptions err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithVecOptions(fairnn.VecOptions{})); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("set WithVecOptions err = %v, want ErrBadOption", err)
	}
	if _, err := fairnn.NewVec([]fairnn.Vec{{1, 0}}, fairnn.Radius(0.5), fairnn.WithVecOptions(fairnn.VecOptions{Eps: 0.2})); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("NNIS WithVecOptions err = %v, want ErrBadOption", err)
	}

	vecs := []fairnn.Vec{{1, 0}, {0, 1, 0}}
	if _, err := fairnn.NewVec(vecs, fairnn.Radius(0.5)); !errors.Is(err, fairnn.ErrDimMismatch) {
		t.Errorf("ragged vecs err = %v, want ErrDimMismatch", err)
	}
	if _, err := fairnn.NewVec([]fairnn.Vec{{1, 0}}, fairnn.Radius(0.5), fairnn.WithDim(3)); !errors.Is(err, fairnn.ErrDimMismatch) {
		t.Errorf("WithDim mismatch err = %v, want ErrDimMismatch", err)
	}
	if _, err := fairnn.NewVec([]fairnn.Vec{{1, 0}}, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Filter)); !errors.Is(err, fairnn.ErrBadRadius) {
		t.Errorf("Filter without beta err = %v, want ErrBadRadius", err)
	}
	if _, err := fairnn.NewVec([]fairnn.Vec{{1, 0}}, fairnn.Radius(1.5)); !errors.Is(err, fairnn.ErrBadRadius) {
		t.Errorf("alpha 1.5 err = %v, want ErrBadRadius", err)
	}
	// A filter geometry whose bucket keys overflow 63 bits (300^8 ≈ 2^66)
	// is refused rather than silently merging buckets.
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{N: 10, Dim: 8, Alpha: 0.8, Beta: 0.5, BallSize: 2, MidSize: 2, Seed: 5})
	_, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5),
		fairnn.WithVecOptions(fairnn.VecOptions{T: 8, M1T: 300}))
	if !errors.Is(err, fairnn.ErrBadOption) || !strings.Contains(err.Error(), "T=8, M1T=300") {
		t.Errorf("overflowing filter geometry err = %v, want ErrBadOption naming T=8, M1T=300", err)
	}
}

// TestBuilderDynamicPreloads checks Algorithm(Dynamic): the points are
// inserted at construction and sampling works through the interface.
func TestBuilderDynamicPreloads(t *testing.T) {
	sets, q := smallSets()
	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Dynamic), fairnn.WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != len(sets) {
		t.Fatalf("Size = %d, want %d", s.Size(), len(sets))
	}
	id, ok := s.Sample(q, nil)
	if !ok {
		t.Fatal("dynamic sampler found nothing")
	}
	d := s.(*fairnn.SetDynamic)
	if fairnn.Jaccard(q, d.Point(id)) < 0.6 {
		t.Fatalf("sampled far point %d", id)
	}
	if got := s.SampleK(q, 3, nil); len(got) == 0 {
		t.Fatal("SampleK returned nothing")
	}
}

// TestSamplerInterfaceMiddleware exercises the polymorphic contract the
// redesign exists for: one function, written once against Sampler[Set],
// audits every construction.
func TestSamplerInterfaceMiddleware(t *testing.T) {
	sets, q := smallSets()
	audit := func(name string, s fairnn.Sampler[fairnn.Set]) {
		t.Helper()
		if s.Size() != len(sets) {
			t.Errorf("%s: Size = %d, want %d", name, s.Size(), len(sets))
		}
		if s.RetainedScratchBytes() < 0 {
			t.Errorf("%s: negative RetainedScratchBytes", name)
		}
		if _, err := s.SampleContext(context.Background(), q, nil); err != nil {
			t.Errorf("%s: SampleContext: %v", name, err)
		}
		n := 0
		for _, err := range s.Samples(context.Background(), q) {
			if err != nil {
				t.Errorf("%s: stream error: %v", name, err)
				break
			}
			if n++; n >= 5 {
				break
			}
		}
		dst := s.SampleKInto(q, 4, nil, nil)
		if len(dst) == 0 {
			t.Errorf("%s: SampleKInto returned nothing", name)
		}
	}
	for _, algo := range []fairnn.Algo{fairnn.NNIS, fairnn.NNS, fairnn.Standard, fairnn.Exact, fairnn.Dynamic} {
		s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(algo), fairnn.WithSeed(67))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		audit(algo.String(), s)
	}
}

// errShard simulates a failing custom ContextSampler middleware.
var errShard = errors.New("shard down")

type failingSampler struct{}

func (failingSampler) SampleContext(ctx context.Context, q fairnn.Set, st *fairnn.QueryStats) (int32, error) {
	return 0, errShard
}

// TestSampleBatchContextForeignError pins the abort contract: a custom
// ContextSampler's own error must surface from the batch (not read as a
// clean, fully-processed result set).
func TestSampleBatchContextForeignError(t *testing.T) {
	queries := make([]fairnn.Set, 16)
	_, err := fairnn.SampleBatchContext(context.Background(), failingSampler{}, queries, 4)
	if !errors.Is(err, errShard) {
		t.Fatalf("batch err = %v, want errShard", err)
	}
}

// timeoutSampler simulates middleware that imposes its own per-query
// deadline: it returns context.DeadlineExceeded while the batch context
// is still live.
type timeoutSampler struct{}

func (timeoutSampler) SampleContext(ctx context.Context, q fairnn.Set, st *fairnn.QueryStats) (int32, error) {
	return 0, context.DeadlineExceeded
}

// TestSampleBatchContextForeignDeadline pins that a context-flavored error
// from the sampler itself (per-query timeout) still surfaces while the
// batch context is live — the batch must not report a clean nil error.
func TestSampleBatchContextForeignDeadline(t *testing.T) {
	queries := make([]fairnn.Set, 16)
	_, err := fairnn.SampleBatchContext(context.Background(), timeoutSampler{}, queries, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want the sampler's DeadlineExceeded", err)
	}
}

// TestSampleBatchContextCancel checks the batch fan-out's cancellation
// contract: a canceled context aborts the batch and reports it.
func TestSampleBatchContextCancel(t *testing.T) {
	sets, q := smallSets()
	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(71))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]fairnn.Set, 64)
	for i := range queries {
		queries[i] = q
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fairnn.SampleBatchContext(ctx, s, queries, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if _, err := fairnn.SampleKBatchContext(ctx, s, queries, 3, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("k-batch err = %v, want context.Canceled", err)
	}

	// Uncanceled: results land and the error is nil.
	out, err := fairnn.SampleBatchContext(context.Background(), s, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range out {
		if r.OK {
			hits++
		}
	}
	if hits != len(queries) {
		t.Fatalf("batch found %d/%d", hits, len(queries))
	}
}
