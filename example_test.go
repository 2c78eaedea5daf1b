package fairnn_test

import (
	"fmt"

	"fairnn"
)

// Sampling a near neighbor fairly: every user within the similarity
// threshold is equally likely to be returned, and repeated queries are
// independent.
func ExampleNewSet() {
	users := []fairnn.Set{
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 5}),
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 6}),
		fairnn.SetFromSlice([]uint32{90, 91, 92, 93, 94}),
	}
	sampler, err := fairnn.NewSet(users, fairnn.Radius(0.5), fairnn.WithSeed(42))
	if err != nil {
		panic(err)
	}
	id, ok := sampler.Sample(users[0], nil)
	fmt.Println(ok, fairnn.Jaccard(users[0], users[id]) >= 0.5)
	// Output: true true
}

// Drawing k distinct near neighbors without replacement (Section 3.1).
func ExampleNewSet_withoutReplacement() {
	users := []fairnn.Set{
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 5}),
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 6}),
		fairnn.SetFromSlice([]uint32{1, 2, 3, 5, 6}),
		fairnn.SetFromSlice([]uint32{70, 71, 72, 73, 74}),
	}
	sampler, err := fairnn.NewSet(users, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.NNS), fairnn.WithSeed(7))
	if err != nil {
		panic(err)
	}
	ids := sampler.SampleK(users[0], 3, nil)
	distinct := map[int32]bool{}
	allNear := true
	for _, id := range ids {
		distinct[id] = true
		allNear = allNear && fairnn.Jaccard(users[0], users[id]) >= 0.5
	}
	fmt.Println(len(ids), len(distinct), allNear)
	// Output: 3 3 true
}

// Weighted sampling (the paper's future-work direction): prefer closer
// points with a caller-chosen weight while keeping everything in the ball
// reachable.
func ExampleNewSet_weighted() {
	users := []fairnn.Set{
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 5}),
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 6}),
	}
	weight := func(sim float64) float64 { return sim * sim }
	w, err := fairnn.NewSet(users, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Weighted), fairnn.WithWeight(weight, 1), fairnn.WithSeed(3))
	if err != nil {
		panic(err)
	}
	id, ok := w.Sample(users[0], nil)
	fmt.Println(ok, fairnn.Jaccard(users[0], users[id]) >= 0.5)
	// Output: true true
}

// Tracking per-query cost through QueryStats (the Q3 accounting).
func ExampleQueryStats() {
	users := []fairnn.Set{
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 5}),
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4, 6}),
		fairnn.SetFromSlice([]uint32{50, 51, 52, 53, 54}),
	}
	s, err := fairnn.NewSet(users, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Standard), fairnn.WithSeed(9))
	if err != nil {
		panic(err)
	}
	var st fairnn.QueryStats
	_, _ = s.(*fairnn.SetStandard).NaiveFairSample(users[0], &st)
	fmt.Println(st.Found, st.PointsInspected > 0, st.ScoreEvals > 0)
	// Output: true true true
}
