// Command bench is the repository benchmark: five closed-loop workloads
// that drive the sampler from a loopback server fleet down to the
// Section 5 filters, each through its public entry points, with output
// checks that fail the run and per-layer attribution in a traced run.
//
//	go run . [-workload W] [-seed N] [-seconds S] [-trace] [-out result.json]
//
// from this directory (bash bench/run.sh takes the same flags from the
// repository root). Without -workload every workload runs in turn. Each
// prints its metrics as "<workload> <metric> <value> <unit>" lines; the
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is non-zero when any
// output check fails. See README.md for the metrics and workloads.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, and perLayer those
// a traced run reports; BENCHMARK.json names the same metrics
// (TestCatalogMatchesBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"throughput_qps", "calls/s"},
	{"heap_mb", "MB"},
}

// diagnostics are end-to-end metrics an untraced run prints but leaves
// out of its result line, so they carry no regression bound. On a shared
// host the slowest calls are the ones other tenants' load lands on: in
// one nnis-set run the calls for a single query took 5.4 to 44.6 ms.
var diagnostics = []metricDef{
	{"latency_p99_us", "us"},
}

var perLayer = []metricDef{
	{"core.rounds_per_query", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.score_evals_per_query", "count"},
	{"core.points_inspected_per_query", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.batch_scored_share", "ratio"},
	{"core.clamped", "count"},
	{"core.draw_us", "us"},
	{"core.arm_us", "us"},
	{"core.segment_us", "us"},
	{"sketch.rel_err_p50", "ratio"},
	{"filter.evals_per_query", "count"},
	{"lsh.sign_us", "us"},
	{"vector.dot_ns", "ns"},
	{"vector.sqdist_ns", "ns"},
	{"shard.arms_per_query", "count"},
	{"shard.segments_per_query", "count"},
	{"shard.picks_per_query", "count"},
	{"shard.arm_us", "us"},
	{"shard.segment_us", "us"},
	{"shard.pick_us", "us"},
	{"shard.self_us", "us"},
	{"shard.retries", "count"},
	{"shard.errors", "count"},
	{"wire.roundtrips_per_query", "count"},
	{"wire.arm_rtt_us", "us"},
	{"wire.segment_rtt_us", "us"},
	{"wire.pick_rtt_us", "us"},
	{"wire.wait_us", "us"},
	{"wire.errors", "count"},
	{"wire.redials", "count"},
	{"wire.noop_rtt_us", "us"},
	{"wire.codec_ns", "ns"},
	{"server.arm_us", "us"},
	{"server.segment_us", "us"},
	{"server.pick_us", "us"},
	{"server.deadline_sheds", "count"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.bytes_per_query", "B"},
	{"runtime.gc_per_kquery", "count"},
	{"client.self_us", "us"},
	{"obs.observe_ns", "ns"},
	{"obs.trace_overhead", "ratio"},
	{"budget.residual_frac", "ratio"},
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line's shape.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 1, "seed of every dataset, query list and index")
	seconds := fs.Int("seconds", 0, "keep an untraced run's callers cycling their first pass until this many seconds have passed")
	trace := fs.Bool("trace", false, "run the traced phases and report the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "also write every workload's result to this JSON file")
	if err := fs.Parse(joinBoolValue(args, "trace")); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "bench: -seconds %d is negative\n", *seconds)
		return 2
	}
	ws := workloads()
	if *name != "" {
		i := slices.IndexFunc(ws, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = ws[i : i+1]
	}

	// The load comes from one process on at most two cores: two callers
	// at most, on two connections.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	c := config{seed: *seed, seconds: *seconds, trace: *trace, size: fullSize}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	summary := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	all := map[string]jsonResult{}
	for _, w := range ws {
		res, err := w.run(c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		report(stdout, res)
		jr := toJSON(res, defs, c.trace)
		all[w.name] = jr
		summary.Correct = summary.Correct && jr.Correct
		summary.Attempted += jr.Attempted
		summary.Failed += jr.Failed
		for k, v := range jr.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			summary.Metrics[k] = v
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(map[string]any{"seed": c.seed, "seconds": c.seconds, "trace": c.trace, "workloads": all}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !summary.Correct {
		return 1
	}
	return 0
}

// report prints a workload's metrics in catalogue order, then its notes
// and failed checks.
func report(w io.Writer, res *result) {
	order := map[string]int{}
	for i, d := range slices.Concat(endToEnd, diagnostics, perLayer) {
		order[d.name] = i
	}
	slices.SortStableFunc(res.metrics, func(a, b metric) int { return cmp.Compare(order[a.name], order[b.name]) })
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", res.workload, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "%s %s %s\n", res.workload, n[0], n[1])
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "%s FAILED %s\n", res.workload, p)
	}
}

// toJSON renders a result with the metrics defs names. With fill, a
// metric the workload does not touch — a wire metric in process, a kernel
// probe on the line — reads 0; without it, a metric the run did not
// produce (a percentile with too few samples beyond it) is left out.
func toJSON(res *result, defs []metricDef, fill bool) jsonResult {
	got := map[string]float64{}
	for _, m := range res.metrics {
		got[m.name] = m.value
	}
	jr := jsonResult{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		if v, ok := got[d.name]; ok || fill {
			jr.Metrics[d.name] = jsonMetric{v, d.unit}
		}
	}
	return jr
}

// joinBoolValue joins a separate true/false/1/0 value onto the named
// boolean flag, so "-trace 1" and "--trace 0" parse like "-trace=1".
func joinBoolValue(args []string, flagName string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+flagName || a == "--"+flagName) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}
