package shard

// The resilience gauge: it measures query latency (p50/p90/p99/p999
// over many single draws, read from the shared obs latency histogram) on
// an 8-shard sampler in two states — all shards healthy, and 1 of 8
// shards force-failed with degraded mode absorbing the loss — and
// reports machine-parseable RESILIENCE lines (BENCH_PR10.json,
// pre-harness history, records a run; bench/ has no faulted workload).
// The faulted numbers quantify the price of losing a failure domain: the
// first query pays the retry budget, steady state pays only the health
// registry's fail-fast gate plus periodic re-admission probes.
//
// Sizes are fixed so the regular test run stays light: 30000 indexed
// points, 2000 timed draws per state.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/lsh"
	"fairnn/internal/obs"
)

// timeDraws runs reps single draws and returns their latency histogram.
func timeDraws(t *testing.T, s *Sharded[int], n, reps int) *obs.Histogram {
	t.Helper()
	h := obs.NewHistogram()
	ctx := context.Background()
	for i := 0; i < reps; i++ {
		q := (i * 997) % n
		start := time.Now()
		_, err := s.SampleContext(ctx, q, nil)
		h.Observe(time.Since(start))
		if err != nil {
			t.Fatalf("draw %d failed: %v", i, err)
		}
	}
	return h
}

// TestResilienceGauge compares healthy vs 1-of-8-shards-faulted query
// latency on the same workload. Correctness is asserted (near points
// only, degraded mode reports the outage); the timing lines are for the
// bench snapshot.
func TestResilienceGauge(t *testing.T) {
	const n, reps = 30000, 2000
	const S = 8
	const radius = 40
	pts := lineDataset(n)
	build := func(inj *fault.Injector) *Sharded[int] {
		s, err := BuildConfig[int](intSpace(), chunkFamily{width: 64}, constParams(lsh.Params{K: 1, L: 4}), pts, radius, core.IndependentOptions{}, Config{
			Shards: S,
			Seed:   991,
			Resilience: Resilience{
				Deadline: 50 * time.Millisecond,
				Retries:  1,
				Degraded: true,
			},
			Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	healthy := build(fault.New(S, 1)) // idle injector: same code path, no faults
	healthyLat := timeDraws(t, healthy, n, reps)

	faulted := build(fault.New(S, 1, fault.Spec{Shards: []int{3}, ErrRate: fault.Always}))
	faultedLat := timeDraws(t, faulted, n, reps)
	var st core.QueryStats
	if _, err := faulted.SampleContext(context.Background(), 0, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Degraded.Degraded() {
		t.Fatal("faulted gauge sampler not reporting degraded queries")
	}

	for _, g := range []struct {
		state string
		h     *obs.Histogram
	}{{"healthy", healthyLat}, {"faulted1of8", faultedLat}} {
		fmt.Printf("RESILIENCE state=%s shards=%d n=%d reps=%d p50_ns=%d p90_ns=%d p99_ns=%d p999_ns=%d\n",
			g.state, S, n, reps, g.h.Quantile(0.50), g.h.Quantile(0.90), g.h.Quantile(0.99), g.h.Quantile(0.999))
	}
}
