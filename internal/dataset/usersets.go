// Package dataset provides the workload substrates for the Section 6
// experiments. The paper evaluates on the HetRec-2011 MovieLens and Last.FM
// datasets, which are not redistributable here; this package instead builds
// synthetic user–item set collections matched to the published summary
// statistics (user count, universe size, mean/σ of set sizes) and to the
// neighborhood structure the experiments need (50 "interesting" queries
// with at least 40 neighbors at Jaccard ≥ 0.2). The substitution holds
// because the experiments measure bias and cost as functions of that
// neighborhood structure, not of which items the sets contain.
//
// The package also constructs the Section 6.2 adversarial instance exactly
// as specified, plus vector workloads (planted balls and low-rank
// matrix-factorization-style embeddings) for the Section 5 experiments.
package dataset

import (
	"math"
	"sort"

	"fairnn/internal/rng"
	"fairnn/internal/set"
)

// SetConfig parameterizes the synthetic user–item set generator. Users are
// partitioned into latent communities; each community has a preference pool
// of items, and a user draws a configurable fraction of its items from its
// community pool and the rest from a global Zipf popularity distribution.
// Communities create the dense neighborhoods (J ≥ 0.2) that make queries
// "interesting"; the Zipf background creates the long similarity tail that
// drives the b_cr/b_r ratios of Figure 3.
type SetConfig struct {
	// Users is the number of user sets to generate.
	Users int
	// Universe is the number of distinct items.
	Universe int
	// MeanSize and SizeStdDev describe the user set size distribution
	// (lognormal when SizeStdDev > MeanSize/2, else normal).
	MeanSize   float64
	SizeStdDev float64
	// Communities is the number of latent communities.
	Communities int
	// PoolSize is the number of items in each community's preference pool.
	PoolSize int
	// CommunityFraction is the fraction of a user's items drawn from its
	// community pool (the rest follow global popularity).
	CommunityFraction float64
	// ZipfExponent shapes global item popularity (≈1 is realistic).
	ZipfExponent float64
	// Seed drives all randomness.
	Seed uint64
}

// MovieLensLike matches the MovieLens statistics reported in Section 6:
// 2112 users, 65536 unique movies, mean set size 178.1 (σ = 187.5).
func MovieLensLike() SetConfig {
	return SetConfig{
		Users:             2112,
		Universe:          65536,
		MeanSize:          178.1,
		SizeStdDev:        187.5,
		Communities:       24,
		PoolSize:          330,
		CommunityFraction: 0.6,
		ZipfExponent:      1.2,
		Seed:              0x4d4f564945, // "MOVIE"
	}
}

// LastFMLike matches the Last.FM statistics reported in Section 6:
// 1892 users, 18739 unique artists, top-20 artists per user
// (mean 19.8, σ = 1.78).
func LastFMLike() SetConfig {
	return SetConfig{
		Users:             1892,
		Universe:          18739,
		MeanSize:          19.8,
		SizeStdDev:        1.78,
		Communities:       36,
		PoolSize:          40,
		CommunityFraction: 0.9,
		ZipfExponent:      0.9,
		Seed:              0x4c415354464d, // "LASTFM"
	}
}

// Generate builds the user sets.
func Generate(cfg SetConfig) []set.Set {
	r := rng.New(cfg.Seed)
	zipf := rng.NewZipf(cfg.Universe, cfg.ZipfExponent)
	// Item ids are assigned to Zipf ranks via a random relabeling so that
	// popularity is not correlated with id order.
	relabel := r.Perm(cfg.Universe)

	// Build community pools: each pool mixes popular items (drawn from the
	// Zipf head) with niche items unique to the community, so that pools
	// overlap mildly (as real genres do).
	pools := make([][]uint32, cfg.Communities)
	for c := range pools {
		pool := make(map[uint32]struct{}, cfg.PoolSize)
		for len(pool) < cfg.PoolSize {
			item := uint32(relabel[zipf.Sample(r)])
			pool[item] = struct{}{}
		}
		flat := make([]uint32, 0, len(pool))
		for it := range pool {
			flat = append(flat, it)
		}
		// Map iteration order is randomized by the runtime; sort so that
		// generation is deterministic for a fixed seed.
		sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
		pools[c] = flat
	}

	sizeSampler := newSizeSampler(cfg.MeanSize, cfg.SizeStdDev)
	sets := make([]set.Set, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		community := u % cfg.Communities // balanced communities
		size := sizeSampler(r)
		if size < 1 {
			size = 1
		}
		if size > cfg.Universe {
			size = cfg.Universe
		}
		items := make(map[uint32]struct{}, size)
		fromPool := int(math.Round(cfg.CommunityFraction * float64(size)))
		pool := pools[community]
		if fromPool > len(pool) {
			fromPool = len(pool)
		}
		for len(items) < fromPool {
			items[pool[r.Intn(len(pool))]] = struct{}{}
		}
		for len(items) < size {
			items[uint32(relabel[zipf.Sample(r)])] = struct{}{}
		}
		flat := make([]uint32, 0, len(items))
		for it := range items {
			flat = append(flat, it)
		}
		sets[u] = set.FromSlice(flat)
	}
	return sets
}

// newSizeSampler returns a sampler for user set sizes: lognormal when the
// distribution is heavy-tailed (σ large relative to the mean, as in
// MovieLens), truncated normal otherwise (as in Last.FM).
func newSizeSampler(mean, sd float64) func(*rng.Source) int {
	if sd > mean/2 {
		// Lognormal with matching mean and standard deviation.
		sigma2 := math.Log(1 + (sd*sd)/(mean*mean))
		mu := math.Log(mean) - sigma2/2
		sigma := math.Sqrt(sigma2)
		return func(r *rng.Source) int {
			return int(math.Round(math.Exp(mu + sigma*r.NormFloat64())))
		}
	}
	return func(r *rng.Source) int {
		return int(math.Round(mean + sd*r.NormFloat64()))
	}
}

// InterestingQueries selects up to k user indices that have at least
// minCount other users at Jaccard similarity ≥ minSim — the query-selection
// rule of Section 6 ("a user X is interesting if there exist at least 40
// other users with Jaccard similarity at least 0.2 with X"). Candidates are
// scanned in a random order so repeated runs with different seeds pick
// different query sets.
//
//fairnn:rng-source experiment-setup stream derived from the caller's explicit seed
func InterestingQueries(sets []set.Set, minSim float64, minCount, k int, seed uint64) []int {
	r := rng.New(seed)
	order := r.Perm(len(sets))
	var out []int
	for _, u := range order {
		cnt := 0
		for v := range sets {
			if v == int(u) {
				continue
			}
			if set.Jaccard(sets[u], sets[v]) >= minSim {
				cnt++
				if cnt >= minCount {
					break
				}
			}
		}
		if cnt >= minCount {
			out = append(out, int(u))
			if len(out) == k {
				break
			}
		}
	}
	return out
}
