package fairnn_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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

// streamDigest fingerprints a sampler's same-seed output: the FNV-64a of
// 50 Sample ids (−1 for a miss) followed by one SampleK(10).
func streamDigest[P any](s fairnn.Sampler[P], q P) string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(id int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		h.Write(buf[:])
	}
	for _, id := range drawN(s, q, 50) {
		put(id)
	}
	for _, id := range s.SampleK(q, 10, nil) {
		put(id)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBuilderStreamDigestsPinned pins the same-seed sample streams of
// every builder path, including the defaults the builder resolves
// (WithSeed(0) means 1, a set far similarity ≤ 0 means 0.1, a vector far
// similarity is taken as given). A change to construction, parameter
// selection or seeding shows up here; a deliberate stream change must
// re-pin these values behind the chi-squared tests.
func TestBuilderStreamDigestsPinned(t *testing.T) {
	sets, q := smallSets()
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 400, Dim: 24, Alpha: 0.8, Beta: 0.4, BallSize: 12, MidSize: 40, Seed: 9,
	})
	memo := fairnn.MemoOptions{MaxRetainedQueriers: 2}
	for _, c := range []struct {
		name string
		opts []fairnn.Option
		want string
	}{
		{"NNIS", []fairnn.Option{fairnn.Radius(0.6), fairnn.WithSeed(23)}, "4699308cd2445120"},
		{"NNIS-seed0", []fairnn.Option{fairnn.Radius(0.6), fairnn.WithSeed(0), fairnn.WithFarSim(-1)}, "f9c8b2cf8044cdc5"},
		{"NNIS-tuned", []fairnn.Option{fairnn.Radius(0.6), fairnn.WithSeed(23), fairnn.WithFullMinHash(),
			fairnn.WithRecall(0.9), fairnn.WithFarSim(0.2), fairnn.WithFarBudget(3), fairnn.WithMemo(memo),
			fairnn.WithIndependentOptions(fairnn.IndependentOptions{Lambda: 8})}, "8cbc34d713a0c9f4"},
		{"NNS", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(29), fairnn.WithParams(4, 7)}, "d4ba7f5d698ee034"},
		{"Exact", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Exact), fairnn.WithSeed(37)}, "451ef780732bacd5"},
		{"Weighted", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Weighted),
			fairnn.WithWeight(func(s float64) float64 { return s }, 1), fairnn.WithSeed(41)}, "d5083c12057b19d3"},
		{"MultiRadius", []fairnn.Option{fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(0.3, 0.6, 0.95), fairnn.WithSeed(43)}, "e7f6c4b09523c5e5"},
		{"Dynamic", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Dynamic), fairnn.WithSeed(61)}, "9473e1eac6a4eb84"},
		{"Sharded3", []fairnn.Option{fairnn.Radius(0.6), fairnn.WithSeed(101), fairnn.WithShards(3),
			fairnn.WithPartitioner(fairnn.HashPartitioner(7))}, "ed332f4560f76ce0"},
	} {
		t.Run("set/"+c.name, func(t *testing.T) {
			s, err := fairnn.NewSet(sets, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := streamDigest(s, q); got != c.want {
				t.Errorf("stream digest %s, want %s", got, c.want)
			}
		})
	}
	for _, c := range []struct {
		name string
		opts []fairnn.Option
		want string
	}{
		{"NNIS", []fairnn.Option{fairnn.Radius(0.8), fairnn.WithSeed(53)}, "4b42c7a60fd4cbbe"},
		{"NNIS-crosspoly", []fairnn.Option{fairnn.Radius(0.8), fairnn.WithSeed(53), fairnn.WithCrossPolytope(),
			fairnn.WithFarSim(-0.2), fairnn.WithMemo(memo)}, "a087d92a33b29f80"},
		{"NNS", []fairnn.Option{fairnn.Radius(0.8), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(59)}, "5da9f23a320473e4"},
		{"Exact", []fairnn.Option{fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Exact), fairnn.WithSeed(61)}, "926308d21cddd4bc"},
		{"Filter", []fairnn.Option{fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.4), fairnn.WithSeed(47)}, "f20030ecc4c24230"},
		{"Sharded2", []fairnn.Option{fairnn.Radius(0.8), fairnn.WithSeed(67), fairnn.WithShards(2)}, "ba7710c8af7fadd8"},
	} {
		t.Run("vec/"+c.name, func(t *testing.T) {
			s, err := fairnn.NewVec(w.Points, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := streamDigest(s, w.Query); got != c.want {
				t.Errorf("stream digest %s, want %s", got, c.want)
			}
		})
	}
	// Standard's build shuffles bucket contents in map-iteration order,
	// so same-seed instances agree in distribution, not bit for bit: pin
	// its resolved (K, L) and that it samples only near points.
	t.Run("set/Standard", func(t *testing.T) {
		s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Standard), fairnn.WithSeed(31), fairnn.WithRecall(0.95))
		if err != nil {
			t.Fatal(err)
		}
		std := s.(*fairnn.SetStandard)
		if got, want := std.Params(), (fairnn.Params{K: 4, L: 6}); got != want {
			t.Errorf("params %+v, want %+v", got, want)
		}
		for i := 0; i < 30; i++ {
			id, ok := s.Sample(q, nil)
			if !ok || fairnn.Jaccard(q, std.Point(id)) < 0.6 {
				t.Fatalf("draw %d: id %d ok=%v is not a near point", i, id, ok)
			}
		}
	})
}

// TestBuilderTypedErrors pins the typed validation errors.
func TestBuilderTypedErrors(t *testing.T) {
	sets, _ := smallSets()
	// Only Algorithm(Dynamic) starts empty, and only with WithParams:
	// there is no point count to tune (K, L) from.
	for _, algo := range []fairnn.Algo{fairnn.NNIS, fairnn.NNS, fairnn.Standard, fairnn.Exact, fairnn.Weighted, fairnn.MultiRadius, fairnn.Filter} {
		_, err := fairnn.NewSet(nil, fairnn.Radius(0.5), fairnn.Algorithm(algo))
		if !errors.Is(err, fairnn.ErrNoPoints) || strings.Contains(err.Error(), "NewSetDynamic") {
			t.Errorf("empty %v err = %v, want ErrNoPoints", algo, err)
		}
	}
	if _, err := fairnn.NewSet(nil, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Dynamic)); !errors.Is(err, fairnn.ErrBadOption) {
		t.Errorf("empty Dynamic without WithParams err = %v, want ErrBadOption", err)
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
	// Sketch and filter accuracies the build would refuse (1 or more, or
	// NaN) are typed option errors on every build path; zero or negative
	// still selects the default.
	for _, o := range []fairnn.IndependentOptions{{SketchEpsilon: 2}, {SketchEpsilon: 1}, {SketchEpsilon: math.NaN()},
		{SketchDelta: 1.5}, {SketchDelta: math.NaN()}} {
		_, setErr := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithIndependentOptions(o))
		_, shardErr := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithShards(2), fairnn.WithIndependentOptions(o))
		for _, err := range []error{setErr, shardErr} {
			if !errors.Is(err, fairnn.ErrBadOption) {
				t.Errorf("IndependentOptions{SketchEpsilon: %v, SketchDelta: %v} err = %v, want ErrBadOption", o.SketchEpsilon, o.SketchDelta, err)
			}
		}
	}
	for _, eps := range []float64{2, 1, math.NaN()} {
		_, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5),
			fairnn.WithVecOptions(fairnn.VecOptions{Eps: eps}))
		if !errors.Is(err, fairnn.ErrBadOption) {
			t.Errorf("VecOptions{Eps: %v} err = %v, want ErrBadOption", eps, err)
		}
	}
	if _, err := fairnn.NewSet(sets, fairnn.Radius(0.5),
		fairnn.WithIndependentOptions(fairnn.IndependentOptions{SketchEpsilon: -1, SketchDelta: 0})); err != nil {
		t.Errorf("default sketch accuracies err = %v, want nil", err)
	}
	if _, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5),
		fairnn.WithVecOptions(fairnn.VecOptions{Eps: -1})); err != nil {
		t.Errorf("default VecOptions.Eps err = %v, want nil", err)
	}
	// Observe and WithMemo are the only telemetry and memo knobs: the
	// same fields inside an options struct are refused, never dropped,
	// on every build path.
	reg, memo := fairnn.NewRegistry(), fairnn.MemoOptions{ScratchBudget: 1 << 20}
	for _, c := range []struct {
		name, knob string
		opt        fairnn.Option
	}{
		{"IndependentOptions.Obs", "Observe", fairnn.WithIndependentOptions(fairnn.IndependentOptions{Obs: reg})},
		{"IndependentOptions.Memo", "WithMemo", fairnn.WithIndependentOptions(fairnn.IndependentOptions{Memo: memo})},
		{"VecOptions.Obs", "Observe", fairnn.WithVecOptions(fairnn.VecOptions{Obs: reg})},
		{"VecOptions.Memo", "WithMemo", fairnn.WithVecOptions(fairnn.VecOptions{Memo: memo})},
	} {
		_, setErr := fairnn.NewSet(sets, fairnn.Radius(0.5), c.opt)
		_, shardErr := fairnn.NewSet(sets, fairnn.Radius(0.5), fairnn.WithShards(2), c.opt)
		_, vecErr := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5), c.opt)
		for _, err := range []error{setErr, shardErr, vecErr} {
			if !errors.Is(err, fairnn.ErrBadOption) || !strings.Contains(err.Error(), c.knob) {
				t.Errorf("%s err = %v, want ErrBadOption naming %s", c.name, err, c.knob)
			}
		}
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
