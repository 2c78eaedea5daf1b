package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/rng"
	"fairnn/internal/servefix"
	"fairnn/internal/shard"
)

// ChaosConfig parameterizes the chaos experiment: every iteration draws
// a random (but seeded — the whole run replays from Seed) fault schedule
// against a sharded sampler and fires a batch of queries through it,
// checking the resilience invariants the test suite pins one case at a
// time, here under arbitrary combinations: every answered query returns
// a near point, degraded answers are reported as such, fail-fast errors
// are typed, and no injected stall or panic ever wedges or crashes the
// process.
type ChaosConfig struct {
	// Iterations is how many independent fault schedules to draw.
	Iterations int
	// Shards is the shard count of the sampler under fire.
	Shards int
	// N is the number of indexed points (a 1-D integer line, so nearness
	// is trivially checkable).
	N int
	// Radius is the query radius on the line.
	Radius float64
	// QueriesPerIteration is the batch size fired at each schedule.
	QueriesPerIteration int
	Seed                uint64
}

// DefaultChaos keeps the experiment in CI-smoke territory: 20 schedules
// x 200 queries over a 4-shard, 4000-point sampler.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Iterations:          20,
		Shards:              4,
		N:                   4000,
		Radius:              40,
		QueriesPerIteration: 200,
		Seed:                2718,
	}
}

// ChaosRow summarizes one iteration (one fault schedule).
type ChaosRow struct {
	Iteration int
	// Schedule is a compact rendering of the drawn fault specs.
	Schedule string
	// DegradedMode reports whether the sampler ran with degradation on.
	DegradedMode bool
	// OK, DegradedOK, NoSample and Failed partition the queries: clean
	// answers, answers served degraded, legitimate misses, and typed
	// failures (fail-fast or all-shards-lost).
	OK, DegradedOK, NoSample, Failed int
	// MeanMicros is the mean per-query wall time.
	MeanMicros float64
}

// ChaosResult carries the per-iteration rows and run totals.
type ChaosResult struct {
	Config  ChaosConfig
	Rows    []ChaosRow
	Queries int
}

// chaosSchedule draws a random fault schedule: one to three specs, each
// aimed at a random shard with a random operation filter, a random fault
// class (error, stall, panic or a mix) at a random rate, and sometimes a
// bounded window so the outage heals and re-admission runs.
func chaosSchedule(r *rng.Source, shards int) ([]fault.Spec, string) {
	specs := make([]fault.Spec, 0, 3)
	desc := ""
	for s := 0; s < 1+r.Intn(3); s++ {
		sp := fault.Spec{Shards: []int{r.Intn(shards)}}
		if r.Bernoulli(0.5) {
			sp.Ops = []fault.Op{fault.Op(r.Intn(3))}
		}
		rate := 0.2 + 0.8*r.Float64()
		class := "err"
		switch r.Intn(4) {
		case 0:
			sp.StallRate = rate
			class = "stall"
		case 1:
			sp.PanicRate = rate
			class = "panic"
		case 2:
			sp.ErrRate = rate / 2
			sp.StallRate = rate / 4
			sp.PanicRate = rate / 4
			class = "mix"
		default:
			sp.ErrRate = rate
		}
		if r.Bernoulli(0.4) {
			sp.Limit = uint64(1 + r.Intn(8)) // transient outage: heals
			class += "*"
		}
		if desc != "" {
			desc += " "
		}
		desc += fmt.Sprintf("s%d:%s@%.1f", sp.Shards[0], class, rate)
		specs = append(specs, sp)
	}
	return specs, desc
}

// RunChaos executes the experiment. Any invariant violation — a far
// point answered, an untyped error, a query that outlived its deadline
// budget by an order of magnitude — aborts the run with an error.
//
//fairnn:rng-source fault-injection schedule generator seeded from the chaos config
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	res := &ChaosResult{Config: cfg}
	r := rng.New(cfg.Seed)
	for it := 0; it < cfg.Iterations; it++ {
		specs, desc := chaosSchedule(r, cfg.Shards)
		degraded := r.Bernoulli(0.75)
		inj := fault.New(cfg.Shards, r.Uint64(), specs...)
		s, err := servefix.InProcLine(servefix.Spec{Dataset: "line", N: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed + uint64(it)*101, Radius: cfg.Radius}, shard.Config{
			Resilience: shard.Resilience{
				Deadline: 20 * time.Millisecond,
				Retries:  r.Intn(3),
				Degraded: degraded,
			},
			Injector: inj,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos iteration %d: build: %w", it, err)
		}
		row := ChaosRow{Iteration: it, Schedule: desc, DegradedMode: degraded}
		var st core.QueryStats
		var wall time.Duration
		for qi := 0; qi < cfg.QueriesPerIteration; qi++ {
			q := r.Intn(cfg.N)
			start := time.Now()
			id, err := s.SampleContext(context.Background(), q, &st)
			d := time.Since(start)
			wall += d
			// A 20ms per-attempt deadline with at most 3 attempts per op
			// bounds any single query far under a second; anything beyond
			// means a stall escaped the deadline machinery.
			if d > 5*time.Second {
				return nil, fmt.Errorf("chaos iteration %d (%s): query took %v — stall escaped its deadline", it, desc, d)
			}
			switch {
			case err == nil:
				if dd := float64(id) - float64(q); dd > cfg.Radius || dd < -cfg.Radius {
					return nil, fmt.Errorf("chaos iteration %d (%s): far point %d for query %d", it, desc, id, q)
				}
				if st.Degraded.Degraded() {
					row.DegradedOK++
				} else {
					row.OK++
				}
			case errors.Is(err, core.ErrNoSample):
				row.NoSample++
			case errors.Is(err, shard.ErrDegraded):
				row.Failed++
			default:
				return nil, fmt.Errorf("chaos iteration %d (%s): untyped error %v", it, desc, err)
			}
		}
		row.MeanMicros = float64(wall.Nanoseconds()) / 1000 / float64(cfg.QueriesPerIteration)
		res.Rows = append(res.Rows, row)
		res.Queries += cfg.QueriesPerIteration
	}
	return res, nil
}

// Render writes the per-schedule table and the run totals.
func (r *ChaosResult) Render(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	var ok, deg, miss, failed int
	for _, row := range r.Rows {
		mode := "fail-fast"
		if row.DegradedMode {
			mode = "degraded"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Iteration),
			row.Schedule,
			mode,
			fmt.Sprintf("%d", row.OK),
			fmt.Sprintf("%d", row.DegradedOK),
			fmt.Sprintf("%d", row.NoSample),
			fmt.Sprintf("%d", row.Failed),
			f2(row.MeanMicros),
		})
		ok += row.OK
		deg += row.DegradedOK
		miss += row.NoSample
		failed += row.Failed
	}
	title := fmt.Sprintf("chaos: %d random fault schedules x %d queries, S=%d, n=%d (seeded: replays exactly)",
		r.Config.Iterations, r.Config.QueriesPerIteration, r.Config.Shards, r.Config.N)
	if err := WriteTable(w, title, []string{"iter", "schedule", "mode", "ok", "degraded", "no-sample", "failed", "mean µs"}, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\ntotals: %d queries — %d ok, %d degraded-ok, %d no-sample, %d typed failures; 0 invariant violations\n",
		r.Queries, ok, deg, miss, failed)
	return err
}
