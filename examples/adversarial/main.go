// Adversarial: reproduce the paper's Section 6.2 demonstration that the
// *approximate neighborhood* relaxation of fair NN search can be exploited
// to suppress a specific user.
//
// The instance plants a "victim" set Y inside a tight cluster M of nearly
// identical sets. Under approximate-neighborhood sampling, whenever Y
// reaches the candidate buckets it is accompanied by hundreds of cluster
// members, so its selection probability collapses — while the isolated set
// X (which is *less* similar to the query than Y) is returned orders of
// magnitude more often. Exact-neighborhood sampling (this library's
// default) is immune: sampling is uniform over the true r-ball.
//
// Run with: go run ./examples/adversarial
package main

import (
	"fmt"
	"log"

	"fairnn"
	"fairnn/internal/dataset"
)

func main() {
	inst := dataset.Adversarial()
	fmt.Printf("instance: %d sets over universe {1..30}\n", len(inst.Points))
	fmt.Printf("  X = {16..30}   similarity to query: %.2f (isolated)\n", fairnn.Jaccard(inst.Query, inst.Points[inst.X]))
	fmt.Printf("  Y = {1..18}    similarity to query: %.2f (inside a cluster of %d near-duplicates)\n",
		fairnn.Jaccard(inst.Query, inst.Points[inst.Y]), len(inst.Points)-int(inst.MStart))
	fmt.Printf("  Z = {1..27}    similarity to query: %.2f (the only 0.9-near point)\n\n", fairnn.Jaccard(inst.Query, inst.Points[inst.Z]))

	const r = 0.9
	const cr = 0.5
	const builds = 400

	counts := map[int32]int{}
	total := 0
	for b := 0; b < builds; b++ {
		s, err := fairnn.NewSet(inst.Points, fairnn.Radius(r), fairnn.Algorithm(fairnn.Standard),
			fairnn.WithFullMinHash(), fairnn.WithSeed(uint64(b+1)))
		if err != nil {
			log.Fatal(err)
		}
		std := s.(*fairnn.SetStandard)
		for rep := 0; rep < 8; rep++ {
			if id, ok := std.ApproxFairSample(inst.Query, cr, nil); ok {
				counts[id]++
				total++
			}
		}
	}
	pX := float64(counts[inst.X]) / float64(total)
	pY := float64(counts[inst.Y]) / float64(total)
	pZ := float64(counts[inst.Z]) / float64(total)
	fmt.Println("approximate-neighborhood sampling (threshold cr = 0.5):")
	fmt.Printf("  P[X] = %.4f   P[Y] = %.4f   P[Z] = %.4f\n", pX, pY, pZ)
	if pY > 0 {
		fmt.Printf("  X is %.0fx more likely than Y despite being LESS similar to the query\n\n", pX/pY)
	} else {
		fmt.Printf("  Y was never returned in %d draws; X clearly dominates\n\n", total)
	}

	// The exact-neighborhood fair sampler has no such failure mode: the
	// 0.9-ball contains only Z, and Z is returned every time.
	fair, err := fairnn.NewSet(inst.Points, fairnn.Radius(r), fairnn.Algorithm(fairnn.NNIS), fairnn.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	zHits, fairTotal := 0, 0
	for i := 0; i < 500; i++ {
		if id, ok := fair.Sample(inst.Query, nil); ok {
			fairTotal++
			if id == inst.Z {
				zHits++
			}
		}
	}
	fmt.Println("exact-neighborhood fair sampling (threshold r = 0.9):")
	fmt.Printf("  %d/%d draws returned Z — the entire true ball, sampled uniformly\n", zHits, fairTotal)
}
