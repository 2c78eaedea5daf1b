package fairnn

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/filter"
	"fairnn/internal/lsh"
	"fairnn/internal/set"
	"fairnn/internal/shard"
	"fairnn/internal/vector"
)

// This file is the construction surface: one functional-options builder
// per point type (NewSet, NewVec), which validates the options and calls
// the internal/core constructors (or the shard builder) directly. Every
// LSH construction resolves its (K, L) through the one resolver,
// lshParams.

// Typed construction errors. Option validation wraps these (use
// errors.Is), with the offending value in the message.
var (
	// ErrNoPoints means the point slice was empty. Index at least one
	// point; only Algorithm(Dynamic) starts empty, and then needs
	// WithParams because there is no point count to tune (K, L) from.
	ErrNoPoints = errors.New("fairnn: empty point set")
	// ErrBadRadius means the radius (or alpha/beta threshold, or radius
	// grid) was missing or outside its valid range.
	ErrBadRadius = errors.New("fairnn: bad or missing radius")
	// ErrDimMismatch means the vectors (or WithDim) disagree on
	// dimensionality.
	ErrDimMismatch = errors.New("fairnn: vector dimensionality mismatch")
	// ErrBadOption means an option combination is invalid for the chosen
	// algorithm or point type.
	ErrBadOption = errors.New("fairnn: invalid option combination")
	// ErrShardedDynamic means WithShards was combined with
	// Algorithm(Dynamic). Sharded wraps read-only samplers only: the
	// weighted shard choice rests on per-shard structures that are
	// immutable after construction, and a mutable shard would silently
	// skew the union distribution — so the combination is rejected with a
	// typed error instead. Keep a single unsharded SetDynamic for the
	// mutable working set and rebuild the sharded index offline.
	ErrShardedDynamic = errors.New("fairnn: sharding wraps read-only samplers (Algorithm(Dynamic) is mutable)")
)

// Algo selects the construction behind NewSet / NewVec.
type Algo int

const (
	// NNIS is the Section 4 independent uniform sampler (the r-NNIS
	// problem) — the default. For vectors it uses the Section 4 LSH
	// construction over SimHash; see Filter for the Section 5 structure.
	NNIS Algo = iota
	// NNS is the Section 3 uniform sampler (deterministic per build).
	NNS
	// Standard is the classic biased LSH baseline; its Sample is the
	// naive fair post-processing sampler. Sets only.
	Standard
	// Exact is the linear-scan ground truth.
	Exact
	// Weighted samples near neighbors with probability proportional to
	// WithWeight's weight of their similarity. Sets only.
	Weighted
	// MultiRadius samples from the tightest non-empty ball over the
	// WithRadii grid (no single radius needed). Sets only.
	MultiRadius
	// Dynamic is the insert/delete-capable sampler, pre-loaded with the
	// given points; with none it starts empty and needs WithParams. Insert
	// and Delete are reached by asserting the result to *SetDynamic. Sets
	// only.
	Dynamic
	// Filter is the Section 5 filter-based α-NNIS structure in nearly
	// linear space (requires WithBeta). Vectors only.
	Filter
)

// String names the algorithm for error messages.
func (a Algo) String() string {
	switch a {
	case NNIS:
		return "NNIS"
	case NNS:
		return "NNS"
	case Standard:
		return "Standard"
	case Exact:
		return "Exact"
	case Weighted:
		return "Weighted"
	case MultiRadius:
		return "MultiRadius"
	case Dynamic:
		return "Dynamic"
	case Filter:
		return "Filter"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// builder accumulates options before validation.
type builder struct {
	algo      Algo
	radius    float64
	radiusSet bool
	radii     []float64
	seed      uint64
	k, l      int
	memo      MemoOptions
	farSim    float64
	farBudget float64
	recall    float64
	fullMin   bool
	crossPoly bool
	dim       int
	beta      float64
	betaSet   bool
	weight    WeightFunc
	wMax      float64
	iopts     IndependentOptions
	ioptsSet  bool
	vopts     VecOptions
	voptsSet  bool
	shards    int
	shardsSet bool
	part      Partitioner
	resil     shard.Resilience
	resilSet  bool
	inj       *FaultInjector
	reg       *Registry
	trcN      int
	err       error
}

// fail records the first option/validation error.
func (b *builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Option configures NewSet or NewVec.
type Option func(*builder)

// Radius sets the query radius: the minimum Jaccard similarity for sets,
// or the inner-product threshold α for vectors. Required by every
// algorithm except MultiRadius (which takes WithRadii).
func Radius(r float64) Option {
	return func(b *builder) { b.radius, b.radiusSet = r, true }
}

// Algorithm selects the construction (default NNIS).
func Algorithm(a Algo) Option {
	return func(b *builder) { b.algo = a }
}

// WithSeed sets the seed driving all randomness (default 1; 0 also means
// 1). Same seed, same options, same points → bit-identical structure and
// sample streams.
func WithSeed(seed uint64) Option {
	return func(b *builder) { b.seed = seed }
}

// WithParams overrides automatic LSH parameter selection with explicit
// (K, L); both must be positive.
func WithParams(k, l int) Option {
	return func(b *builder) {
		if k <= 0 || l <= 0 {
			b.fail(fmt.Errorf("%w: WithParams(%d, %d) needs positive K and L", ErrBadOption, k, l))
			return
		}
		b.k, b.l = k, l
	}
}

// WithMemo sets the per-query memory discipline (querier retention cap,
// per-querier scratch budget); it is the only memo knob.
func WithMemo(m MemoOptions) Option {
	return func(b *builder) { b.memo = m }
}

// WithRecall sets the target recall at the radius for automatic L
// selection (default 0.99); must be in (0, 1).
func WithRecall(recall float64) Option {
	return func(b *builder) {
		if recall <= 0 || recall >= 1 {
			b.fail(fmt.Errorf("%w: WithRecall(%v) outside (0, 1)", ErrBadOption, recall))
			return
		}
		b.recall = recall
	}
}

// WithFarSim sets the "far" similarity for automatic K selection
// (defaults: 0.1 for sets, 0 for vectors).
func WithFarSim(s float64) Option {
	return func(b *builder) { b.farSim = s }
}

// WithFarBudget sets the expected number of far collisions for automatic
// K selection (default 5).
func WithFarBudget(budget float64) Option {
	return func(b *builder) { b.farBudget = budget }
}

// WithFullMinHash uses full 64-bit MinHash bucket keys instead of the
// 1-bit scheme (sets only).
func WithFullMinHash() Option {
	return func(b *builder) { b.fullMin = true }
}

// WithCrossPolytope selects the cross-polytope family instead of SimHash
// (vectors only).
func WithCrossPolytope() Option {
	return func(b *builder) { b.crossPoly = true }
}

// WithDim fixes the vector dimensionality (otherwise inferred from the
// first point); vectors only.
func WithDim(d int) Option {
	return func(b *builder) {
		if d <= 0 {
			b.fail(fmt.Errorf("%w: WithDim(%d) needs a positive dimension", ErrBadOption, d))
			return
		}
		b.dim = d
	}
}

// WithBeta sets the far threshold β of the Section 5 Filter structure
// (required with Algorithm(Filter); must satisfy −1 < β < α).
func WithBeta(beta float64) Option {
	return func(b *builder) { b.beta, b.betaSet = beta, true }
}

// WithWeight sets the weight function of Algorithm(Weighted): near
// neighbors are returned with probability proportional to
// weight(similarity). wMax must upper-bound the weight over the near
// range.
func WithWeight(weight WeightFunc, wMax float64) Option {
	return func(b *builder) { b.weight, b.wMax = weight, wMax }
}

// WithRadii sets the similarity grid of Algorithm(MultiRadius); queries
// sample from the tightest non-empty ball.
func WithRadii(radii ...float64) Option {
	return func(b *builder) { b.radii = append([]float64(nil), radii...) }
}

// WithShards partitions the index across s shards, each backed by its own
// Section 4 structure built in parallel, queried through the
// uniformity-preserving two-stage draw (see Sharded). Requires
// Algorithm(NNIS) — the default — and at most one shard per point;
// Algorithm(Dynamic) is rejected with ErrShardedDynamic. WithShards(1)
// builds a one-shard Sharded that is bit-identical to the unsharded
// sampler.
func WithShards(s int) Option {
	return func(b *builder) {
		if s < 1 {
			b.fail(fmt.Errorf("%w: WithShards(%d) needs at least one shard", ErrBadOption, s))
			return
		}
		b.shards, b.shardsSet = s, true
	}
}

// WithPartitioner selects how points are assigned to shards (default
// round-robin); requires WithShards.
func WithPartitioner(p Partitioner) Option {
	return func(b *builder) {
		if p == nil {
			b.fail(fmt.Errorf("%w: WithPartitioner(nil)", ErrBadOption))
			return
		}
		b.part = p
	}
}

// WithShardDeadline bounds every individual attempt of every per-shard
// call (arm, segment report, point pick) of a sharded query; an attempt
// that exceeds it counts as a failure against the shard's retry budget.
// Deadlines bound waiting — injected faults today, RPC I/O in the
// networked backend — while in-process compute is bounded by the query's
// own cancellation polling. Requires WithShards.
func WithShardDeadline(d time.Duration) Option {
	return func(b *builder) {
		if d <= 0 {
			b.fail(fmt.Errorf("%w: WithShardDeadline(%v) needs a positive deadline", ErrBadOption, d))
			return
		}
		b.resil.Deadline, b.resilSet = d, true
	}
}

// WithShardRetry grants every per-shard call retries extra attempts
// after its first failure, with capped exponential backoff between
// attempts. The backoff jitter comes from a per-(query, shard) substream
// derived from the query's stream seed — never from the query's main RNG
// stream, so fault-free sample streams stay bit-identical to an
// un-retried sampler. Requires WithShards.
func WithShardRetry(retries int) Option {
	return func(b *builder) {
		if retries < 0 {
			b.fail(fmt.Errorf("%w: WithShardRetry(%d) needs a non-negative count", ErrBadOption, retries))
			return
		}
		b.resil.Retries, b.resilSet = retries, true
	}
}

// WithShardBackoff tunes the retry backoff: attempt i sleeps a jittered
// duration in (0, min(base<<i, max)] (defaults 1ms, 50ms). Requires
// WithShards and WithShardRetry.
func WithShardBackoff(base, max time.Duration) Option {
	return func(b *builder) {
		if base <= 0 || max < base {
			b.fail(fmt.Errorf("%w: WithShardBackoff(%v, %v) needs 0 < base ≤ max", ErrBadOption, base, max))
			return
		}
		b.resil.BackoffBase, b.resil.BackoffMax, b.resilSet = base, max, true
	}
}

// WithDegradedMode answers queries from the surviving shards when one or
// more shards exhaust their deadline/retry budget: the lost shards leave
// the union pool and every accepted draw remains exactly uniform — over
// the survivors' union ball, a smaller population, reported honestly on
// QueryStats.Degraded (shards lost, points lost, estimated coverage
// fraction). Without it, the first exhausted shard fails the query fast
// with a typed *ShardError (matching errors.Is(err, ErrDegraded)).
// Requires WithShards.
func WithDegradedMode() Option {
	return func(b *builder) { b.resil.Degraded, b.resilSet = true, true }
}

// WithShardProbeEvery sets the health registry's re-admission cadence:
// a shard marked unhealthy is skipped without spending the query's
// budget, except every n-th skip-eligible call probes it for real — one
// successful arm re-admits it (default 8). Requires WithShards.
func WithShardProbeEvery(n int) Option {
	return func(b *builder) {
		if n < 1 {
			b.fail(fmt.Errorf("%w: WithShardProbeEvery(%d) needs n ≥ 1", ErrBadOption, n))
			return
		}
		b.resil.ProbeEvery, b.resilSet = n, true
	}
}

// WithFaultInjection interposes the deterministic fault-injection
// harness on every per-shard backend call (see NewFaultInjector) — a
// test-only knob for exercising the resilience policy against seeded
// latency, errors, stalls, and panics. The injector must be built for
// the same shard count. An idle injector (no firing specs) leaves
// same-seed sample streams bit-identical. Requires WithShards.
func WithFaultInjection(inj *FaultInjector) Option {
	return func(b *builder) {
		if inj == nil {
			b.fail(fmt.Errorf("%w: WithFaultInjection(nil)", ErrBadOption))
			return
		}
		b.inj = inj
	}
}

// Observe attaches a telemetry registry to the sampler: the draw loop
// records rejection rounds, memo hits, batch-scored candidates, and
// draw latency into r (sharded builds additionally record per-shard
// arm/segment/pick latency, retries, backoff waits, and health
// transitions). A sampler built without Observe — or with the
// registry's instruments never read — emits bit-identical same-seed
// sample streams and allocates nothing extra on the Sample hot path:
// telemetry is contractually invisible, exactly like an idle fault
// injector. Expose r over HTTP with MetricsHandler or
// Registry.WritePrometheus, or read instruments programmatically.
// Requires an algorithm with an
// instrumented draw loop: NNIS (the default), Weighted, MultiRadius, or
// Filter.
func Observe(r *Registry) Option {
	return func(b *builder) {
		if r == nil {
			b.fail(fmt.Errorf("%w: Observe(nil) — omit the option to disable telemetry", ErrBadOption))
			return
		}
		b.reg = r
	}
}

// WithTraceSampling additionally captures a structured span tree (arm →
// per-shard segment reports → point picks, annotated with retries,
// degraded transitions, and failure notes) for one in every everyN
// queries, published to the registry's trace ring (Registry.Tracer).
// The trace-or-not decision is a pure hash of the query's stream seed —
// drawn from a derived substream, never from the query's own RNG
// stream — so traced and untraced runs emit bit-identical sample
// streams. Requires WithShards (spans follow the per-shard backend
// seam) and Observe.
func WithTraceSampling(everyN int) Option {
	return func(b *builder) {
		if everyN < 1 {
			b.fail(fmt.Errorf("%w: WithTraceSampling(%d) needs everyN ≥ 1", ErrBadOption, everyN))
			return
		}
		b.trcN = everyN
	}
}

// WithIndependentOptions tunes the Section 4 constructions (NNIS,
// Weighted, MultiRadius); the zero value follows the paper. Its Obs and
// Memo fields must stay zero: Observe and WithMemo are their knobs.
// SketchEpsilon and SketchDelta must be below 1 (zero or negative
// selects the default). Any other algorithm rejects it with ErrBadOption.
func WithIndependentOptions(o IndependentOptions) Option {
	return func(b *builder) {
		if err := cmp.Or(ownKnobs("IndependentOptions", o.Obs, o.Memo),
			belowOne("IndependentOptions.SketchEpsilon", o.SketchEpsilon),
			belowOne("IndependentOptions.SketchDelta", o.SketchDelta)); err != nil {
			b.fail(err)
			return
		}
		b.iopts, b.ioptsSet = o, true
	}
}

// WithVecOptions tunes the Section 5 Filter construction; the zero value
// follows the paper. Its Obs and Memo fields must stay zero: Observe and
// WithMemo are their knobs. Eps must be below 1 (zero or negative selects
// the default). Any other algorithm rejects it with ErrBadOption.
func WithVecOptions(o VecOptions) Option {
	return func(b *builder) {
		if err := cmp.Or(ownKnobs("VecOptions", o.Obs, o.Memo), belowOne("VecOptions.Eps", o.Eps)); err != nil {
			b.fail(err)
			return
		}
		b.vopts, b.voptsSet = o, true
	}
}

// belowOne refuses a probability-valued tuning field that the build
// would reject: 1 or more, or NaN. Zero or negative keeps meaning
// "default".
func belowOne(name string, v float64) error {
	if !(v < 1) {
		return fmt.Errorf("%w: %s = %v, want below 1 (≤ 0 for the default)", ErrBadOption, name, v)
	}
	return nil
}

// ownKnobs rejects the options-struct fields that have a builder option
// of their own, so every setting has exactly one knob.
func ownKnobs(name string, reg *Registry, memo MemoOptions) error {
	if reg != nil {
		return fmt.Errorf("%w: %s.Obs is set by Observe", ErrBadOption, name)
	}
	if memo != (MemoOptions{}) {
		return fmt.Errorf("%w: %s.Memo is set by WithMemo", ErrBadOption, name)
	}
	return nil
}

// apply folds the options into a builder.
func apply(opts []Option) *builder {
	b := &builder{}
	for _, opt := range opts {
		opt(b)
	}
	if b.seed == 0 {
		b.seed = 1
	}
	return b
}

// lshParams is the one (K, L) resolver behind every LSH construction:
// the WithParams override when given, otherwise K such that about
// WithFarBudget (default 5) of n points at similarity farSim collide
// with a query, and L for WithRecall (default 0.99) at the radius.
func lshParams[P any](b *builder, fam lsh.Family[P], farSim float64) func(n int, radius float64) lsh.Params {
	return func(n int, radius float64) lsh.Params {
		if b.k > 0 {
			return lsh.Params{K: b.k, L: b.l}
		}
		k := lsh.ChooseK(fam, n, farSim, orDefault(b.farBudget, 5))
		return lsh.Params{K: k, L: lsh.ChooseL(fam, k, radius, orDefault(b.recall, 0.99))}
	}
}

// orDefault substitutes def for an unset (≤ 0) tuning value.
func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// lshTuned reports whether any LSH parameter-selection option was
// supplied — such tuning has no effect on constructions that build no
// LSH tables and is rejected there instead of silently dropped.
func (b *builder) lshTuned() bool {
	return b.k > 0 || b.l > 0 || b.recall != 0 || b.farSim != 0 || b.farBudget != 0
}

// checkShards validates the shard-layer options of a build over n
// points. Partitioning, resilience, fault injection and trace sampling
// act on the per-shard seam, so without WithShards they would silently
// do nothing; traces also need Observe's registry to publish to; and
// sharding wraps the read-only Section 4 sampler only.
func (b *builder) checkShards(n int) error {
	if b.trcN > 0 && b.reg == nil {
		return fmt.Errorf("%w: WithTraceSampling requires Observe (traces publish to the registry's trace ring)", ErrBadOption)
	}
	if !b.shardsSet {
		switch {
		case b.part != nil:
			return fmt.Errorf("%w: WithPartitioner requires WithShards", ErrBadOption)
		case b.resilSet || b.inj != nil:
			return fmt.Errorf("%w: shard resilience options (WithShardDeadline/WithShardRetry/WithShardBackoff/WithDegradedMode/WithShardProbeEvery/WithFaultInjection) require WithShards", ErrBadOption)
		case b.trcN > 0:
			return fmt.Errorf("%w: WithTraceSampling requires WithShards (spans follow the per-shard backend seam)", ErrBadOption)
		}
		return nil
	}
	if b.algo == Dynamic {
		return fmt.Errorf("%w: WithShards(%d) with Algorithm(Dynamic)", ErrShardedDynamic, b.shards)
	}
	if b.algo != NNIS {
		return fmt.Errorf("%w: sharding wraps the Section 4 sampler — WithShards requires Algorithm(NNIS), got %v", ErrBadOption, b.algo)
	}
	if b.shards > n {
		return fmt.Errorf("%w: WithShards(%d) over %d points leaves shards empty", ErrBadOption, b.shards, n)
	}
	return nil
}

// independentOptions completes the Section 4 options with the memo
// discipline and, on unsharded builds, the registry. A sharded build
// carries the registry on shard.Config instead: the shard layer owns the
// draw loop there, and an idle core-layer instrument family would be
// noise in the exposition.
func (b *builder) independentOptions() IndependentOptions {
	o := b.iopts
	o.Memo = b.memo
	if !b.shardsSet {
		o.Obs = b.reg
	}
	return o
}

// shardConfig assembles the shard-layer build config from the builder.
func (b *builder) shardConfig() shard.Config {
	return shard.Config{
		Shards:      b.shards,
		Partitioner: b.part,
		Seed:        b.seed,
		Resilience:  b.resil,
		Injector:    b.inj,
		Obs:         b.reg,
		TraceEveryN: b.trcN,
	}
}

// NewSet indexes item sets (Jaccard similarity) behind the Sampler
// contract, configured by functional options:
//
//	s, err := fairnn.NewSet(points,
//	    fairnn.Radius(0.5),
//	    fairnn.Algorithm(fairnn.NNIS),
//	    fairnn.WithSeed(7),
//	)
//
// The default algorithm is NNIS (the Section 4 independent uniform
// sampler). Option validation returns typed errors (ErrBadRadius,
// ErrNoPoints, ErrBadOption) that callers match with errors.Is. The
// returned Sampler is the structure itself — *SetIndependent, *SetSampler,
// *SetStandard, *SetExact, *SetWeighted, *SetMultiRadius, *SetDynamic, or
// *Sharded[Set] with WithShards — so a type assertion reaches the methods
// that belong to one structure, such as SetDynamic.Insert or
// SetMultiRadius.SampleTightest.
func NewSet(points []Set, opts ...Option) (Sampler[Set], error) {
	b := apply(opts)
	if b.err != nil {
		return nil, b.err
	}
	if len(points) == 0 && b.algo != Dynamic {
		return nil, fmt.Errorf("%w (only Algorithm(Dynamic) starts empty)", ErrNoPoints)
	}
	if b.crossPoly || b.dim > 0 {
		return nil, fmt.Errorf("%w: WithCrossPolytope/WithDim are vector options", ErrBadOption)
	}
	if b.betaSet {
		return nil, fmt.Errorf("%w: WithBeta belongs to the vector Filter algorithm", ErrBadOption)
	}
	if b.weight != nil && b.algo != Weighted {
		return nil, fmt.Errorf("%w: WithWeight requires Algorithm(Weighted), got %v", ErrBadOption, b.algo)
	}
	if len(b.radii) > 0 && b.algo != MultiRadius {
		return nil, fmt.Errorf("%w: WithRadii requires Algorithm(MultiRadius), got %v", ErrBadOption, b.algo)
	}
	if b.voptsSet {
		return nil, fmt.Errorf("%w: WithVecOptions belongs to the vector Filter algorithm", ErrBadOption)
	}
	if b.ioptsSet && b.algo != NNIS && b.algo != Weighted && b.algo != MultiRadius {
		return nil, fmt.Errorf("%w: WithIndependentOptions has no effect on Algorithm(%v)", ErrBadOption, b.algo)
	}
	if b.reg != nil && b.algo != NNIS && b.algo != Weighted && b.algo != MultiRadius {
		return nil, fmt.Errorf("%w: Observe instruments the Section 4 draw loop — Algorithm(%v) has none", ErrBadOption, b.algo)
	}
	if err := b.checkShards(len(points)); err != nil {
		return nil, err
	}
	if b.algo == Filter {
		return nil, fmt.Errorf("%w: Algorithm(Filter) is vector-only (use NewVec)", ErrBadOption)
	}
	var fam lsh.Family[set.Set] = lsh.OneBitMinHash{}
	if b.fullMin {
		fam = lsh.MinHash{}
	}
	params := lshParams(b, fam, orDefault(b.farSim, 0.1))
	if b.algo == MultiRadius {
		if b.radiusSet {
			return nil, fmt.Errorf("%w: Algorithm(MultiRadius) takes WithRadii, not Radius", ErrBadOption)
		}
		if len(b.radii) == 0 {
			return nil, fmt.Errorf("%w: Algorithm(MultiRadius) needs WithRadii", ErrBadRadius)
		}
		for _, r := range b.radii {
			if r <= 0 || r > 1 {
				return nil, fmt.Errorf("%w: grid radius %v outside (0, 1]", ErrBadRadius, r)
			}
		}
		paramsFor := func(r float64) lsh.Params { return params(len(points), r) }
		return core.NewMultiRadius(core.Jaccard(), fam, paramsFor, points, b.radii, b.independentOptions(), b.seed)
	}
	if !b.radiusSet {
		return nil, fmt.Errorf("%w: Radius option is required", ErrBadRadius)
	}
	r := b.radius
	if r <= 0 || r > 1 {
		return nil, fmt.Errorf("%w: Jaccard radius %v outside (0, 1]", ErrBadRadius, r)
	}
	if b.shardsSet {
		paramsFor := func(n int) lsh.Params { return params(n, r) }
		return shard.BuildConfig(core.Jaccard(), fam, paramsFor, points, r, b.independentOptions(), b.shardConfig())
	}
	switch b.algo {
	case NNIS:
		return core.NewIndependent(core.Jaccard(), fam, params(len(points), r), points, r, b.independentOptions(), b.seed)
	case NNS:
		return core.NewSamplerMemo(core.Jaccard(), fam, params(len(points), r), points, r, b.memo, b.seed)
	case Standard:
		if b.memo != (MemoOptions{}) {
			return nil, fmt.Errorf("%w: Algorithm(Standard) keeps no pooled memo — WithMemo has no effect", ErrBadOption)
		}
		return core.NewStandard(core.Jaccard(), fam, params(len(points), r), points, r, b.seed)
	case Exact:
		if b.lshTuned() || b.fullMin || b.memo != (MemoOptions{}) {
			return nil, fmt.Errorf("%w: Algorithm(Exact) is a linear scan — LSH and memo tuning have no effect", ErrBadOption)
		}
		return core.NewExact(core.Jaccard(), points, r, b.seed), nil
	case Weighted:
		if b.weight == nil || b.wMax <= 0 {
			return nil, fmt.Errorf("%w: Algorithm(Weighted) needs WithWeight with a positive wMax", ErrBadOption)
		}
		return core.NewWeighted(core.Jaccard(), fam, params(len(points), r), points, r, b.weight, b.wMax, b.independentOptions(), b.seed)
	case Dynamic:
		if b.memo != (MemoOptions{}) {
			return nil, fmt.Errorf("%w: Algorithm(Dynamic) keeps no pooled memo — WithMemo has no effect", ErrBadOption)
		}
		if len(points) == 0 && b.k == 0 {
			return nil, fmt.Errorf("%w: an empty Algorithm(Dynamic) start needs WithParams (no point count to tune K and L from)", ErrBadOption)
		}
		d, err := core.NewDynamic(core.Jaccard(), fam, params(max(len(points), 2), r), r, b.seed)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			if _, err := d.Insert(p); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	return nil, fmt.Errorf("%w: unknown algorithm %v", ErrBadOption, b.algo)
}

// NewVec indexes unit vectors (inner-product similarity) behind the
// Sampler contract; Radius is the near threshold α. The default algorithm
// is NNIS (the Section 4 LSH construction over SimHash); Algorithm(Filter)
// selects the Section 5 nearly-linear-space structure and additionally
// needs WithBeta. Vector dimensionality is inferred from the first point
// (override with WithDim); points disagreeing with it return
// ErrDimMismatch. As with NewSet, the returned Sampler is the structure
// itself (*VecSamplerIndependent, *VecSampler, *VecIndependent,
// *VecExact, or *Sharded[Vec]).
func NewVec(points []Vec, opts ...Option) (Sampler[Vec], error) {
	b := apply(opts)
	if b.err != nil {
		return nil, b.err
	}
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if b.fullMin {
		return nil, fmt.Errorf("%w: WithFullMinHash is a set option", ErrBadOption)
	}
	if b.weight != nil || len(b.radii) > 0 {
		return nil, fmt.Errorf("%w: WithWeight/WithRadii belong to the set algorithms", ErrBadOption)
	}
	if b.betaSet && b.algo != Filter {
		return nil, fmt.Errorf("%w: WithBeta requires Algorithm(Filter), got %v", ErrBadOption, b.algo)
	}
	if b.voptsSet && b.algo != Filter {
		return nil, fmt.Errorf("%w: WithVecOptions requires Algorithm(Filter), got %v", ErrBadOption, b.algo)
	}
	if b.ioptsSet && b.algo != NNIS {
		return nil, fmt.Errorf("%w: WithIndependentOptions has no effect on Algorithm(%v)", ErrBadOption, b.algo)
	}
	if b.reg != nil && b.algo != NNIS && b.algo != Filter {
		return nil, fmt.Errorf("%w: Observe instruments the Section 4/5 draw loops — Algorithm(%v) has none", ErrBadOption, b.algo)
	}
	dim := b.dim
	if dim == 0 {
		dim = len(points[0])
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimMismatch, i, len(p), dim)
		}
	}
	if !b.radiusSet {
		return nil, fmt.Errorf("%w: Radius (alpha) option is required", ErrBadRadius)
	}
	alpha := b.radius
	if alpha <= -1 || alpha >= 1 {
		return nil, fmt.Errorf("%w: alpha %v outside (-1, 1)", ErrBadRadius, alpha)
	}
	if err := b.checkShards(len(points)); err != nil {
		return nil, err
	}
	var fam lsh.Family[vector.Vec] = lsh.SimHash{Dim: dim}
	if b.crossPoly {
		fam = lsh.CrossPolytope{Dim: dim}
	}
	// The vector far similarity is taken as given: its default, inner
	// product 0, is the zero value, and a negative one is meaningful.
	params := lshParams(b, fam, b.farSim)
	if b.shardsSet {
		paramsFor := func(n int) lsh.Params { return params(n, alpha) }
		return shard.BuildConfig(core.InnerProduct(), fam, paramsFor, points, alpha, b.independentOptions(), b.shardConfig())
	}
	switch b.algo {
	case NNIS:
		return core.NewIndependent(core.InnerProduct(), fam, params(len(points), alpha), points, alpha, b.independentOptions(), b.seed)
	case NNS:
		return core.NewSamplerMemo(core.InnerProduct(), fam, params(len(points), alpha), points, alpha, b.memo, b.seed)
	case Filter:
		if !b.betaSet {
			return nil, fmt.Errorf("%w: Algorithm(Filter) needs WithBeta", ErrBadRadius)
		}
		if b.beta <= -1 || b.beta >= alpha {
			return nil, fmt.Errorf("%w: beta %v outside (-1, alpha=%v)", ErrBadRadius, b.beta, alpha)
		}
		if b.lshTuned() || b.crossPoly {
			return nil, fmt.Errorf("%w: Algorithm(Filter) is tuned via WithVecOptions — LSH (K, L)/recall/far and cross-polytope options have no effect", ErrBadOption)
		}
		vopts := b.vopts
		vopts.Memo, vopts.Obs = b.memo, b.reg
		fi, err := core.NewFilterIndependent(points, alpha, b.beta, vopts, b.seed)
		if errors.Is(err, filter.ErrKeySpace) {
			return nil, fmt.Errorf("%w: filter geometry: %w", ErrBadOption, err)
		}
		if err != nil {
			return nil, err
		}
		return fi, nil
	case Exact:
		if b.lshTuned() || b.crossPoly || b.memo != (MemoOptions{}) {
			return nil, fmt.Errorf("%w: Algorithm(Exact) is a linear scan — LSH and memo tuning have no effect", ErrBadOption)
		}
		return core.NewExact(core.InnerProduct(), points, alpha, b.seed), nil
	case Standard, Weighted, MultiRadius, Dynamic:
		return nil, fmt.Errorf("%w: Algorithm(%v) is set-only (use NewSet)", ErrBadOption, b.algo)
	}
	return nil, fmt.Errorf("%w: unknown algorithm %v", ErrBadOption, b.algo)
}
