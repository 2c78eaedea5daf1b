package fairnn_test

import (
	"testing"

	"fairnn"
)

func batchFixtureSets() []fairnn.Set {
	sets := make([]fairnn.Set, 120)
	for i := range sets {
		items := make([]uint32, 0, 24)
		base := uint32((i / 10) * 40)
		for j := uint32(0); j < 24; j++ {
			items = append(items, base+j+uint32(i%10))
		}
		sets[i] = fairnn.SetFromSlice(items)
	}
	return sets
}

// TestSampleBatch checks the bulk fan-out: results align positionally with
// the queries, every returned id is a true near neighbor, and self-queries
// (distance 0) always succeed.
func TestSampleBatch(t *testing.T) {
	sets := batchFixtureSets()
	d, err := fairnn.NewSet(sets, fairnn.Radius(0.3), fairnn.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		res := fairnn.SampleBatch[fairnn.Set](d, sets, workers)
		if len(res) != len(sets) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(res), len(sets))
		}
		for i, r := range res {
			if !r.OK {
				t.Fatalf("workers=%d: self-query %d failed", workers, i)
			}
			if sim := fairnn.Jaccard(sets[i], sets[r.ID]); sim < 0.3 {
				t.Fatalf("workers=%d: query %d returned far point (J=%v)", workers, i, sim)
			}
		}
	}
}

// TestSampleKBatch checks the k-sample fan-out against the Section 4
// structure.
func TestSampleKBatch(t *testing.T) {
	sets := batchFixtureSets()
	d, err := fairnn.NewSet(sets, fairnn.Radius(0.3), fairnn.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	queries := sets[:30]
	res := fairnn.SampleKBatch[fairnn.Set](d, queries, 5, 4)
	if len(res) != len(queries) {
		t.Fatalf("got %d results, want %d", len(res), len(queries))
	}
	for i, ids := range res {
		if len(ids) == 0 {
			t.Fatalf("query %d returned no samples", i)
		}
		for _, id := range ids {
			if sim := fairnn.Jaccard(queries[i], sets[id]); sim < 0.3 {
				t.Fatalf("query %d sampled far point (J=%v)", i, sim)
			}
		}
	}
}
