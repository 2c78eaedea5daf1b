package shard

// The shard-sweep gauge: it builds the sharded sampler at gauge scale for
// each shard count in the sweep and reports build time, single-draw
// latency and bulk-draw latency as machine-parseable SHARDSWEEP lines
// (BENCH_PR5.json records a sweep at n = 10⁶). It doubles as an
// end-to-end smoke for the sharded path at a realistic size.
//
// Knobs (env): FAIRNN_SHARD_N (indexed points, default 30000 so the
// regular test run stays light; set 1000000 to measure) and
// FAIRNN_SHARD_SWEEP (space-separated shard counts, default "1 2 4 8").

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/lsh"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func envInts(name string, def []int) []int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	var out []int
	for _, f := range strings.Fields(s) {
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return def
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// TestShardSweepGauge measures the sharded build and query path across
// the shard sweep at gauge scale. Every sweep point must answer queries
// correctly (near points only); the timing lines are for the bench
// snapshot, not assertions.
func TestShardSweepGauge(t *testing.T) {
	n := envInt("FAIRNN_SHARD_N", 30000)
	sweep := envInts("FAIRNN_SHARD_SWEEP", []int{1, 2, 4, 8})
	const radius = 40
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
