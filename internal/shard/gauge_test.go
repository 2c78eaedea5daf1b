package shard

// The shard-sweep gauge: it builds the sharded sampler at gauge scale for
// each shard count in the sweep and reports build time, single-draw
// latency and bulk-draw latency as machine-parseable SHARDSWEEP lines.
// bench/'s shard-line workload measures the S = 2, n = 10⁶ point of it
// (setup_s, latency_p50_us); BENCH_PR5.json, pre-harness history,
// records a whole sweep at n = 10⁶. It doubles as an end-to-end smoke
// for the sharded path at a realistic size.
//
// Sizes are fixed so the regular test run stays light: 30000 indexed
// points, shard counts 1, 2, 4 and 8.

import (
	"fmt"
	"testing"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/lsh"
)

// TestShardSweepGauge measures the sharded build and query path across
// the shard sweep at gauge scale. Every sweep point must answer queries
// correctly (near points only); the timing lines are for the bench
// snapshot, not assertions.
func TestShardSweepGauge(t *testing.T) {
	const n, radius = 30000, 40
	sweep := []int{1, 2, 4, 8}
	pts := lineDataset(n)
	for _, S := range sweep {
		start := time.Now()
		s, err := BuildConfig[int](intSpace(), chunkFamily{width: 64}, constParams(lsh.Params{K: 1, L: 4}), pts, radius, core.IndependentOptions{}, Config{Shards: S, Partitioner: RoundRobin{}, Seed: 991})
		if err != nil {
			t.Fatal(err)
		}
		buildMS := float64(time.Since(start).Nanoseconds()) / 1e6

		const queries = 50
		start = time.Now()
		for i := 0; i < queries; i++ {
			q := (i * 997) % n
			id, ok := s.Sample(q, nil)
			if !ok {
				t.Fatalf("S=%d: Sample(%d) failed", S, q)
			}
			if d := int(id) - q; d > radius || d < -radius {
				t.Fatalf("S=%d: far point %d for query %d", S, id, q)
			}
		}
		sampleNS := float64(time.Since(start).Nanoseconds()) / queries

		dst := make([]int32, 0, 100)
		const bulk = 10
		start = time.Now()
		for i := 0; i < bulk; i++ {
			dst = s.SampleKInto((i*499)%n, 100, dst, nil)
			if len(dst) == 0 {
				t.Fatalf("S=%d: bulk draw found nothing", S)
			}
		}
		samplekNS := float64(time.Since(start).Nanoseconds()) / bulk

		fmt.Printf("SHARDSWEEP shards=%d n=%d build_ms=%.2f sample_ns=%.0f samplek100_ns=%.0f\n",
			S, n, buildMS, sampleNS, samplekNS)
	}
}
