package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// smokeSize runs every workload at toy scale.
var smokeSize = sizes{lineN: 20_000, warm: 10, lineCalls: 100, pairCalls: 50, setCalls: 60, vecCalls: 60, builds: 1, vecs: 2}

// TestWorkloadsSmoke runs all five workloads, untraced and traced, at toy
// scale and side by side: every output check must pass and every metric
// must be reported.
func TestWorkloadsSmoke(t *testing.T) {
	// Metrics only some workloads report, each checked on one of them.
	own := map[string][]string{
		"serve-line":    {"budget.residual_frac", "wire.noop_rtt_us", "server.segment_us", "shard.segments_per_query", "shard.self_us", "core.arm_us"},
		"serve-line-2c": {"wire.roundtrips_per_query"},
		"shard-line":    {"shard.arm_us", "client.self_us", "core.segment_us"},
		"nnis-set":      {"lsh.sign_us", "core.draw_us", "sketch.rel_err_p50"},
		"filter-vec":    {"vector.dot_ns", "vector.sqdist_ns", "filter.evals_per_query"},
	}
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, w := range workloads() {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel()
				t0 := time.Now()
				res, err := w.run(config{seed: 7, trace: trace, size: smokeSize})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d calls in %v", res.attempted, time.Since(t0))
				for _, p := range res.problems {
					t.Error(p)
				}
				if res.attempted == 0 {
					t.Error("no calls attempted")
				}
				got := map[string]float64{}
				for _, m := range res.metrics {
					if _, dup := got[m.name]; dup {
						t.Errorf("%s reported twice", m.name)
					}
					got[m.name] = m.value
				}
				jr := toJSON(res, defs, trace)
				for _, d := range defs {
					v, ok := jr.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing from the result line", d.name)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", d.name, v.Value)
					}
				}
				if trace {
					for _, name := range own[w.name] {
						if _, ok := got[name]; !ok {
							t.Errorf("traced run did not measure %s", name)
						}
					}
				}
			})
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// and workloads the program reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(ws) != len(bj.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(ws), len(bj.Workloads))
	}
	for i, w := range ws {
		if w.name != bj.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, bj.Workloads[i].Name)
		}
	}
	for _, tc := range []struct {
		what string
		defs []metricDef
		json []metricJSON
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(tc.defs) != len(tc.json) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", tc.what, len(tc.defs), len(tc.json))
			continue
		}
		for i, d := range tc.defs {
			if j := tc.json[i]; d.name != j.Name || d.unit != j.Unit {
				t.Errorf("%s %d: %s (%s), BENCHMARK.json says %s (%s)", tc.what, i, d.name, d.unit, j.Name, j.Unit)
			}
		}
	}
}

type metricJSON struct{ Name, Unit string }
