// Adaptive: the "parameterless" direction from the paper's conclusion —
// rather than fixing the radius r up front, index a grid of radii and let
// each query sample fairly from the *tightest non-empty* neighborhood.
//
// This matters in practice because a good r is data- and query-dependent:
// a mainstream user has thousands of neighbors at Jaccard 0.3, a niche
// user may have none above 0.15. The multi-radius sampler serves both with
// one structure and still returns every member of the chosen ball with
// equal probability.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"fairnn"
	"fairnn/internal/dataset"
)

func main() {
	// A Last.FM-like user-artist workload.
	cfg := dataset.LastFMLike()
	cfg.Users = 800
	cfg.Communities = 16
	users := dataset.Generate(cfg)

	radii := []float64{0.5, 0.35, 0.25, 0.15}
	built, err := fairnn.NewSet(users, fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(radii...), fairnn.WithSeed(99))
	if err != nil {
		log.Fatal(err)
	}
	m := built.(*fairnn.SetMultiRadius)

	// Probe a few users: the chosen radius adapts to their neighborhood
	// density, and sampling stays uniform within it.
	queries := dataset.InterestingQueries(users, 0.2, 10, 3, 7)
	if len(queries) == 0 {
		log.Fatal("no dense users found")
	}
	// Also probe a sparse user, one with no neighbor at Jaccard ≥ 0.35:
	// the tightest non-empty radius below that wins.
	sparse := -1
	for u := range users {
		near35 := 0
		for v := range users {
			if v != u && fairnn.Jaccard(users[u], users[v]) >= 0.35 {
				near35++
			}
		}
		if near35 == 0 {
			sparse = u
			break
		}
	}

	probes := append([]int{}, queries...)
	if sparse >= 0 {
		probes = append(probes, sparse)
	}
	for _, u := range probes {
		id, r, ok := m.SampleTightest(users[u], nil)
		if !ok {
			fmt.Printf("user %4d: no neighbors at any indexed radius\n", u)
			continue
		}
		sim := fairnn.Jaccard(users[u], m.At(0).Point(id))
		fmt.Printf("user %4d: sampled neighbor %4d at similarity %.2f (adaptive radius %.2f)\n",
			u, id, sim, r)
	}

	// A floor on the neighborhood size: "give me a fair sample from a pool
	// of at least 25 comparable users" — the top-ℓ-then-sample recipe for
	// recommendation diversity, without materializing a top-ℓ list.
	u := queries[0]
	id, r, ok := m.SampleAtLeast(users[u], 25, nil)
	if !ok {
		log.Fatal("no radius with 25 neighbors")
	}
	fmt.Printf("\nuser %4d with a 25-neighbor floor: radius %.2f, sampled %4d (similarity %.2f)\n",
		u, r, id, fairnn.Jaccard(users[u], m.At(0).Point(id)))
}
