// Package core implements the paper's fair near-neighbor data structures:
//
//   - Sampler (Section 3): r-near neighbor sampling via a random rank
//     permutation over LSH buckets — uniform output distribution.
//   - Sampler.SampleK / SampleRepeated (Section 3.1 + Appendix A):
//     k-samples without replacement, and with-replacement sampling for a
//     single repeated query via rank perturbation.
//   - Independent (Section 4): r-near neighbor *independent* sampling with
//     per-bucket rank indices and mergeable count-distinct sketches.
//   - FilterIndependent (Section 5): α-NNIS in nearly-linear space via
//     locality-sensitive filters for inner-product similarity.
//   - Standard / NaiveFair / ApproxFair (Section 2.2 and Section 6
//     baselines) and Exact (linear-scan ground truth).
//
// All structures are generic over the point type and use an LSH family as a
// black box, mirroring the paper's distance-agnostic construction.
package core

import (
	"fairnn/internal/set"
	"fairnn/internal/vector"
)

// Kind says whether scores are distances (near means score ≤ r) or
// similarities (near means score ≥ r). The paper states all results for
// distances and notes the similarity variant in Section 2.1; the Section 6
// experiments use Jaccard similarity and Section 5 uses inner product.
type Kind int

const (
	// Distance spaces treat lower scores as closer.
	Distance Kind = iota
	// Similarity spaces treat higher scores as closer.
	Similarity
)

// Space bundles a pairwise score with its orientation.
type Space[P any] struct {
	Kind  Kind
	Score func(a, b P) float64
	// ScoreSq, when non-nil on a Distance space, returns Score squared
	// (e.g. the squared Euclidean distance) — a monotone surrogate that
	// skips the final square root. Near tests then compare against r²
	// instead of evaluating math.Sqrt per candidate.
	ScoreSq func(a, b P) float64
}

// Near reports whether a score meets the threshold r under the space's
// orientation.
//
//fairnn:noalloc
func (s Space[P]) Near(score, r float64) bool {
	if s.Kind == Distance {
		return score <= r
	}
	return score >= r
}

// Nearness returns a predicate reporting whether b lies in the radius-r
// ball of a, equivalent to Near(Score(a, b), r) but routed through the
// sqrt-free ScoreSq kernel when one is available (Distance spaces with
// r ≥ 0 compare ScoreSq against r²). Hot query loops resolve the
// predicate once per structure instead of re-branching per candidate.
func (s Space[P]) Nearness(r float64) func(a, b P) bool {
	if s.Kind == Distance {
		if s.ScoreSq != nil && r >= 0 {
			sq, r2 := s.ScoreSq, r*r
			return func(a, b P) bool { return sq(a, b) <= r2 }
		}
		score := s.Score
		return func(a, b P) bool { return score(a, b) <= r }
	}
	score := s.Score
	return func(a, b P) bool { return score(a, b) >= r }
}

// Jaccard is the similarity space over item sets used by the Section 6
// experiments.
func Jaccard() Space[set.Set] {
	return Space[set.Set]{Kind: Similarity, Score: func(a, b set.Set) float64 { return set.Jaccard(a, b) }}
}

// InnerProduct is the similarity space over (unit) vectors used by the
// Section 5 data structure.
func InnerProduct() Space[vector.Vec] {
	return Space[vector.Vec]{Kind: Similarity, Score: vector.Dot}
}

// Euclidean is the ℓ2 distance space. Its ScoreSq kernel lets near tests
// compare squared distances against r², skipping the square root.
func Euclidean() Space[vector.Vec] {
	return Space[vector.Vec]{Kind: Distance, Score: vector.Euclidean, ScoreSq: vector.SquaredEuclidean}
}

// QueryStats accumulates per-query cost counters; every query method
// accepts a *QueryStats that may be nil. The counters back the Q3 cost
// experiments (Section 6.3).
type QueryStats struct {
	// BucketsScanned counts bucket lookups across tables/filters.
	BucketsScanned int
	// PointsInspected counts bucket entries touched (with multiplicity).
	PointsInspected int
	// ScoreEvals counts distance/similarity evaluations.
	ScoreEvals int
	// BatchScored counts the subset of ScoreEvals performed through a
	// batched kernel call (the Section 5 blocked existence scan) rather
	// than one evaluation at a time; Section 4 scores one candidate at a
	// time and leaves it 0.
	BatchScored int
	// ScoreCacheHits counts near/similarity tests answered from the
	// per-query memo table (the epoch-stamped near-cache) instead of
	// re-evaluating the score.
	ScoreCacheHits int
	// MemoProbes counts per-query memo lookups (near-cache and
	// similarity memo); ScoreCacheHits counts the ones that hit.
	MemoProbes int
	// CursorMerged reports that the query materialized the merged
	// candidate cursor (the adaptive k-way merge of all L buckets).
	CursorMerged bool
	// Rounds counts rejection-sampling rounds (Sections 4 and 5).
	Rounds int
	// SketchEstimate records the merged count-distinct estimate ŝ_q
	// (Section 4 only).
	SketchEstimate float64
	// FinalK records the segment count k in use when the Section 4 query
	// succeeded.
	FinalK int
	// FilterEvals counts inner products against filter vectors (Section 5).
	FilterEvals int
	// Clamped records that an acceptance probability exceeded 1 and was
	// clamped — a low-probability failure event under correctly chosen
	// constants.
	Clamped bool
	// Found reports whether the query returned a point.
	Found bool
	// ShardRounds counts the rejection rounds charged to each shard of a
	// sharded query (index = shard). Sharded queries size it to the shard
	// count (reusing capacity across queries); unsharded queries leave it
	// nil.
	ShardRounds []int
	// ShardEstimates records each shard's per-query near-count estimate
	// ŝ_j of a sharded query; nil for unsharded queries. SketchEstimate
	// holds their sum (the union estimate).
	ShardEstimates []float64
	// ShardChosen is the shard that produced the most recent sharded
	// sample, or -1 when the draw failed; meaningful only after a sharded
	// query (unsharded queries leave the zero value).
	ShardChosen int
	// Degraded describes a sharded query answered from a strict subset
	// of its shards (degraded mode): which shards were lost and how much
	// of the union ball the survivors are estimated to cover. The zero
	// value (Degraded.Degraded() == false) means the full index answered.
	Degraded DegradedInfo
}

// DegradedInfo is the honest-accounting record of a degraded sharded
// query: with degraded mode enabled, a query whose shard(s) exhausted
// their deadline/retry budget is answered *exactly uniformly over the
// surviving shards' union ball* — a well-defined but smaller population —
// instead of failing. This struct says so explicitly, rather than letting
// a partial answer masquerade as a full one.
type DegradedInfo struct {
	// LostShards lists the shards excluded from the union pool, in shard
	// order. Empty means the query was not degraded. Sharded queries
	// reuse the slice's capacity across queries on the same QueryStats.
	LostShards []int
	// LostPoints is the total number of indexed points owned by the lost
	// shards — the upper bound on how many near neighbors the answer
	// population can be missing.
	LostPoints int
	// Coverage estimates the fraction of the query's true union ball the
	// surviving shards cover, from sketch mass: the survivors' summed
	// per-query near-count estimates ŝ_j over the estimated total. A lost
	// shard contributes its last successfully observed ŝ_j (tracked by
	// the health registry); a shard that never reported one contributes a
	// density extrapolation from its point count. In (0, 1]; 1 only when
	// the lost shards are estimated to hold no near points.
	Coverage float64
}

// Degraded reports whether the query lost any shard.
func (d *DegradedInfo) Degraded() bool { return len(d.LostShards) > 0 }

// add merges counters (used when one logical query performs sub-queries).
//
//fairnn:noalloc
func (s *QueryStats) add(o QueryStats) {
	if s == nil {
		return
	}
	s.BucketsScanned += o.BucketsScanned
	s.PointsInspected += o.PointsInspected
	s.ScoreEvals += o.ScoreEvals
	s.BatchScored += o.BatchScored
	s.ScoreCacheHits += o.ScoreCacheHits
	s.MemoProbes += o.MemoProbes
	s.Rounds += o.Rounds
	s.FilterEvals += o.FilterEvals
	s.Clamped = s.Clamped || o.Clamped
	s.CursorMerged = s.CursorMerged || o.CursorMerged
	s.ShardRounds = mergeShard(s.ShardRounds, o.ShardRounds)
	s.ShardEstimates = mergeShard(s.ShardEstimates, o.ShardEstimates)
	// Degraded is adopted whole when s has none (summing loss records
	// from different queries has no meaning, mirroring mergeShard).
	if len(s.Degraded.LostShards) == 0 && len(o.Degraded.LostShards) > 0 {
		s.Degraded.LostShards = append(s.Degraded.LostShards[:0], o.Degraded.LostShards...)
		s.Degraded.LostPoints = o.Degraded.LostPoints
		s.Degraded.Coverage = o.Degraded.Coverage
	}
}

// mergeShard folds per-shard counter slices: adopt o's when s has none,
// add element-wise when the shard counts match, and otherwise keep s
// unchanged — per-index sums across different shard layouts have no
// meaning (see Merge).
//
//fairnn:noalloc
func mergeShard[T int | float64](s, o []T) []T {
	switch {
	case len(o) == 0:
		return s
	case len(s) == 0:
		return append(s, o...) //fairnn:allocok first-merge adoption, once per stats object
	case len(s) == len(o):
		for i, v := range o {
			s[i] += v
		}
	}
	return s
}

// Merge folds o's counters into s — the exported form of the internal
// accumulation used by multi-stage queries. The sharded fan-out resolves
// shards on worker goroutines against per-worker stats and merges them
// into the caller's afterwards (QueryStats itself is not safe for
// concurrent mutation). Per-shard slices (ShardRounds, ShardEstimates)
// are adopted when s has none and summed element-wise when the shard
// counts match; merging stats from samplers with different shard counts
// keeps s's slices unchanged, since per-index sums across different
// layouts are meaningless. The point-in-time records (SketchEstimate,
// FinalK, ShardChosen, Found) are set by the query that produced them,
// not accumulated.
//
//fairnn:noalloc
func (s *QueryStats) Merge(o QueryStats) { s.add(o) }

// bump* helpers tolerate nil receivers so query code stays uncluttered.

//fairnn:noalloc
func (s *QueryStats) bucket() {
	if s != nil {
		s.BucketsScanned++
	}
}

//fairnn:noalloc
func (s *QueryStats) point() {
	if s != nil {
		s.PointsInspected++
	}
}

//fairnn:noalloc
func (s *QueryStats) points(n int) {
	if s != nil {
		s.PointsInspected += n
	}
}

//fairnn:noalloc
func (s *QueryStats) score() {
	if s != nil {
		s.ScoreEvals++
	}
}

//fairnn:noalloc
func (s *QueryStats) cacheHit() {
	if s != nil {
		s.ScoreCacheHits++
	}
}

//fairnn:noalloc
func (s *QueryStats) memoProbe() {
	if s != nil {
		s.MemoProbes++
	}
}

//fairnn:noalloc
func (s *QueryStats) merged() {
	if s != nil {
		s.CursorMerged = true
	}
}

//fairnn:noalloc
func (s *QueryStats) round() {
	if s != nil {
		s.Rounds++
	}
}

//fairnn:noalloc
func (s *QueryStats) filters(n int) {
	if s != nil {
		s.FilterEvals += n
	}
}

//fairnn:noalloc
func (s *QueryStats) clamp() {
	if s != nil {
		s.Clamped = true
	}
}

//fairnn:noalloc
func (s *QueryStats) found(ok bool) {
	if s != nil {
		s.Found = ok
	}
}
