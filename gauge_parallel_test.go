// The multi-core throughput gauge: it drives the Section 5 vector sampler
// from W concurrent workers at GOMAXPROCS = W for each point of the sweep
// and reports aggregate samples/sec as machine-parseable PARALLEL lines
// (BENCH_PR7.json, pre-harness history, records one sweep; bench/ has no
// multi-core workload). The scaling curve is the end-to-end proof that
// the query path has no hidden serialization: queriers come from the
// pool, per-query RNG streams split off an atomic counter, and the
// kernels are read-only, so throughput should track core count on
// multi-core hosts (on a single-core host the curve is honestly flat).
//
// Sizes are fixed so the regular test run stays light: 2000 indexed
// points, 50 SampleK calls per worker, GOMAXPROCS ∈ {1, 2, 4}.

package fairnn_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fairnn"
	"fairnn/internal/dataset"
)

func TestParallelThroughputGauge(t *testing.T) {
	const n, draws, perCall = 2000, 50, 100
	sweep := []int{1, 2, 4}

	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: n, Dim: 64, Alpha: 0.8, Beta: 0.5,
		BallSize: max(20, n/100), MidSize: max(40, n/50), Seed: 977,
	})
	fi, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.5), fairnn.WithSeed(983))
	if err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	base := 0.0
	for _, g := range sweep {
		runtime.GOMAXPROCS(g)
		var wg sync.WaitGroup
		var empty sync.Once
		failed := false
		start := time.Now()
		for wk := 0; wk < g; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]int32, 0, perCall)
				for i := 0; i < draws; i++ {
					dst = fi.SampleKInto(w.Query, perCall, dst, nil)
					if len(dst) == 0 {
						empty.Do(func() { failed = true })
					}
				}
			}()
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		if failed {
			t.Fatalf("gomaxprocs=%d: SampleKInto returned no samples on the planted ball", g)
		}
		tput := float64(g*draws*perCall) / secs
		if base == 0 {
			base = tput
		}
		fmt.Printf("PARALLEL gomaxprocs=%d workers=%d samples=%d secs=%.3f samples_per_sec=%.0f speedup_vs_first=%.2f\n",
			g, g, g*draws*perCall, secs, tput, tput/base)
	}
}
