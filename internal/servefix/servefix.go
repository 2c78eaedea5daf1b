// Package servefix defines the shared serving fixtures: deterministic
// dataset + shard-build recipes that cmd/fairnn-server, the chaos
// experiments, and the cross-process tests all derive from the same
// (dataset, n, seed) triple. A server process and an in-process twin
// built from the same Spec construct bit-identical Section 4 structures
// — the property the stream-equivalence oracle rests on — because both
// sides resolve options against the global point count, partition with
// the same scheme, and seed shard j with shard.ShardSeed(seed, j),
// exactly as shard.BuildConfig does.
package servefix

import (
	"errors"
	"fmt"
	"math"

	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/shard"
	"fairnn/internal/vector"
	"fairnn/internal/wire"
)

// Spec identifies one deterministic serving build. Every process that
// shares a Spec builds the same global dataset and the same per-shard
// structures.
type Spec struct {
	// Dataset selects the workload: "line" (integers 0..N-1 under
	// absolute distance — nearness is trivially checkable) or "vec"
	// (planted-ball unit vectors under inner-product similarity).
	Dataset string
	// N is the global point count.
	N int
	// Dim is the vector dimensionality (vec only).
	Dim int
	// Shards is the fleet size S.
	Shards int
	// Seed derives the dataset, every shard structure, and the query
	// streams.
	Seed uint64
	// Radius is the query radius (line) or the similarity threshold α
	// (vec).
	Radius float64
}

// Validate checks the spec is buildable.
func (sp Spec) Validate() error {
	switch sp.Dataset {
	case "line", "vec":
	default:
		return fmt.Errorf("servefix: unknown dataset %q (want line or vec)", sp.Dataset)
	}
	if sp.N < 1 {
		return fmt.Errorf("servefix: point count %d < 1", sp.N)
	}
	if sp.Shards < 1 || sp.Shards > sp.N {
		return fmt.Errorf("servefix: shard count %d outside [1, %d]", sp.Shards, sp.N)
	}
	if sp.Dataset == "vec" && sp.Dim < 2 {
		return fmt.Errorf("servefix: vec dimension %d < 2", sp.Dim)
	}
	if sp.Radius <= 0 {
		return fmt.Errorf("servefix: radius %g <= 0", sp.Radius)
	}
	if sp.Dataset == "vec" && !(sp.Radius > vecBeta && sp.Radius < vecAlphaMax) {
		return fmt.Errorf("%w: %g outside (%g, %g)", errVecRadius, sp.Radius, vecBeta, vecAlphaMax)
	}
	return nil
}

// The vec fixture plants its far band between vecBeta and α and its near
// points in (α, min(α+0.2, vecAlphaMax)] (dataset.NewPlantedBall), so
// only a threshold α strictly between vecBeta and vecAlphaMax has near
// points strictly above it.
const (
	vecBeta     = 0.5
	vecAlphaMax = 0.98
)

// errVecRadius reports a vec similarity threshold α outside the range
// where the planted-ball fixture has near points above it.
var errVecRadius = errors.New("servefix: vec similarity threshold")

// Partitioner returns the fixture partitioning scheme (round-robin —
// the client and every server must agree on it).
func (sp Spec) Partitioner() shard.Partitioner { return shard.RoundRobin{} }

// CodecName returns the wire codec name the spec's point type uses.
func (sp Spec) CodecName() string {
	if sp.Dataset == "vec" {
		return wire.VecCodec{Dim: sp.Dim}.Name()
	}
	return wire.IntCodec{}.Name()
}

// LineFamily buckets the integer line into fixed-width chunks — enough
// bucket structure for the rejection loop to do real work (shared so
// servers, twins and the chaos experiments agree).
type LineFamily struct {
	// Width is the chunk width.
	Width int
}

// New implements lsh.Family.
func (f LineFamily) New(r *rng.Source) lsh.Func[int] {
	off := r.Intn(f.Width)
	w := f.Width
	return func(p int) uint64 { return uint64((p + off) / w) }
}

// CollisionProb implements lsh.Family.
func (LineFamily) CollisionProb(float64) float64 { return 0.9 }

// LineSpace returns the fixture's scalar space (absolute distance).
func LineSpace() core.Space[int] {
	return core.Space[int]{Kind: core.Distance, Score: func(a, b int) float64 {
		return math.Abs(float64(a - b))
	}}
}

// LineParams is the fixture's per-shard LSH parameter choice.
func LineParams(int) lsh.Params { return lsh.Params{K: 1, L: 4} }

// LinePoints materializes the global line dataset: the integers
// 0..N-1.
func (sp Spec) LinePoints() []int {
	pts := make([]int, sp.N)
	for i := range pts {
		pts[i] = i
	}
	return pts
}

// VecWorkload materializes the global planted-ball dataset. The same
// Spec always yields the same vectors and the same planted query.
func (sp Spec) VecWorkload() dataset.PlantedBall {
	return dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: sp.N, Dim: sp.Dim, Alpha: sp.Radius, Beta: vecBeta,
		BallSize: 16, MidSize: 48, Seed: sp.Seed,
	})
}

// VecFamily returns the fixture's vector LSH family.
func (sp Spec) VecFamily() lsh.SimHash { return lsh.SimHash{Dim: sp.Dim} }

// VecParams is the fixture's per-shard LSH parameter choice for
// vectors, tuned to the shard size exactly as the scaling experiment
// does.
func (sp Spec) VecParams(shardSize int) lsh.Params {
	fam := sp.VecFamily()
	k := lsh.ChooseK[vector.Vec](fam, shardSize, 0, 5)
	l := lsh.ChooseL[vector.Vec](fam, k, sp.Radius, 0.99)
	return lsh.Params{K: k, L: l}
}

// localPoints partitions a global dataset and returns shard j's slice.
func localPoints[P any](sp Spec, points []P, j int) []P {
	part := sp.Partitioner()
	var local []P
	for i, p := range points {
		if part.Assign(i, sp.N, sp.Shards) == j {
			local = append(local, p)
		}
	}
	return local
}

// meta assembles the handshake identity for shard j of the spec.
func (sp Spec) meta(j, shardN int, opts core.IndependentOptions, qseed uint64) wire.Meta {
	return wire.Meta{
		ShardIndex:      j,
		ShardCount:      sp.Shards,
		GlobalN:         sp.N,
		ShardN:          shardN,
		Lambda:          float64(opts.Lambda),
		Sigma:           opts.SigmaBudget,
		QueryStreamSeed: qseed,
		Radius:          sp.Radius,
		Codec:           sp.CodecName(),
	}
}

// BuildLineShard constructs shard j's Section 4 structure for a line
// spec, with options resolved against the GLOBAL point count and the
// shard seed derived exactly as shard.BuildConfig derives it — the
// out-of-process half of the bit-identical-build contract.
func BuildLineShard(sp Spec, j int) (*core.Independent[int], wire.Meta, error) {
	if err := sp.Validate(); err != nil {
		return nil, wire.Meta{}, err
	}
	opts := core.IndependentOptions{}.Resolved(sp.N)
	local := localPoints(sp, sp.LinePoints(), j)
	d, err := core.NewIndependent(LineSpace(), LineFamily{Width: 64}, LineParams(len(local)), local, sp.Radius, opts, shard.ShardSeed(sp.Seed, j))
	if err != nil {
		return nil, wire.Meta{}, err
	}
	return d, sp.meta(j, len(local), opts, d.QueryStreamSeed()), nil
}

// BuildVecShard is BuildLineShard for the planted-ball vector spec.
func BuildVecShard(sp Spec, j int) (*core.Independent[vector.Vec], wire.Meta, error) {
	if err := sp.Validate(); err != nil {
		return nil, wire.Meta{}, err
	}
	opts := core.IndependentOptions{}.Resolved(sp.N)
	w := sp.VecWorkload()
	local := localPoints(sp, w.Points, j)
	d, err := core.NewIndependent[vector.Vec](core.InnerProduct(), sp.VecFamily(), sp.VecParams(len(local)), local, sp.Radius, opts, shard.ShardSeed(sp.Seed, j))
	if err != nil {
		return nil, wire.Meta{}, err
	}
	return d, sp.meta(j, len(local), opts, d.QueryStreamSeed()), nil
}

// InProcLine builds the in-process twin of a line-spec server fleet:
// the same dataset through shard.BuildConfig with the same seed,
// partitioner, and per-shard parameters, so its same-seed sample
// streams are the oracle a remote fleet must reproduce bit for bit.
func InProcLine(sp Spec, cfg shard.Config) (*shard.Sharded[int], error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	cfg.Shards = sp.Shards
	cfg.Seed = sp.Seed
	if cfg.Partitioner == nil {
		cfg.Partitioner = sp.Partitioner()
	}
	return shard.BuildConfig(LineSpace(), LineFamily{Width: 64}, LineParams, sp.LinePoints(), sp.Radius, core.IndependentOptions{}, cfg)
}

// InProcVec is InProcLine for the vector spec.
func InProcVec(sp Spec, cfg shard.Config) (*shard.Sharded[vector.Vec], error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	cfg.Shards = sp.Shards
	cfg.Seed = sp.Seed
	if cfg.Partitioner == nil {
		cfg.Partitioner = sp.Partitioner()
	}
	w := sp.VecWorkload()
	return shard.BuildConfig[vector.Vec](core.InnerProduct(), sp.VecFamily(), sp.VecParams, w.Points, sp.Radius, core.IndependentOptions{}, cfg)
}
