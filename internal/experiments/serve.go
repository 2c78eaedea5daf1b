package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
	"fairnn/internal/servefix"
	"fairnn/internal/shard"
	"fairnn/internal/wire"
)

// ServeConfig parameterizes the network load-test harness: a fleet of
// in-process wire servers on loopback (the same server type
// cmd/fairnn-server runs, so every protocol path is the real one), a
// Connect-assembled sampler over it, and a pool of concurrent client
// goroutines firing queries while an optional mid-run server kill +
// restart exercises degradation and probed re-admission under load.
type ServeConfig struct {
	// N is the global point count of the line spec.
	N int
	// Shards is the server fleet size.
	Shards int
	// Radius is the query radius on the line.
	Radius float64
	// Clients is the number of concurrent client goroutines.
	Clients int
	// QueriesPerClient is each goroutine's query count.
	QueriesPerClient int
	// Kill, when set, abruptly closes one server mid-run and restarts it
	// (same build, same address) once the load finishes, then verifies
	// the health registry probes it back in.
	Kill bool
	Seed uint64
}

// DefaultServe keeps the harness in CI-smoke territory while still
// producing meaningful latency percentiles: 4 clients x 250 queries
// against a 4-shard fleet, with a mid-run kill.
func DefaultServe() ServeConfig {
	return ServeConfig{
		N:                4000,
		Shards:           4,
		Radius:           40,
		Clients:          4,
		QueriesPerClient: 250,
		Kill:             true,
		Seed:             3141,
	}
}

// ServeResult carries the aggregate load-test outcome.
type ServeResult struct {
	Config ServeConfig
	// Queries is the total query count across clients.
	Queries int
	// OK / DegradedOK / NoSample partition the successful outcomes;
	// Failed counts typed failures (all of them legitimate under a kill).
	OK, DegradedOK, NoSample, Failed int
	// P50Micros..P999Micros are latency quantiles over all queries, read
	// from the shared log-spaced obs histogram (bucket-interpolated, the
	// same summaries a /metrics scrape would yield).
	P50Micros, P90Micros, P99Micros, P999Micros float64
	// Hist is the non-empty latency buckets backing the quantiles,
	// emitted as SERVE_HIST lines for the bench history.
	Hist []obs.Bucket
	// QPS is the measured throughput (queries / wall-clock second) and
	// QueriesPerHour its hourly extrapolation — the serving-scale figure.
	QPS, QueriesPerHour float64
	// Killed and Readmitted report the kill/restart cycle (zero-valued
	// when Config.Kill is off).
	Killed     bool
	Readmitted bool
	// Health is the sampler's final health registry snapshot, as served
	// by the operator endpoint.
	Health []wire.HealthRecord
}

// serveFleet is a loopback fleet of real wire servers plus the recipe to
// restart any member on its original address.
type serveFleet struct {
	sp    servefix.Spec
	addrs []string
	srvs  []*wire.Server[int]
}

// startServeFleet builds and serves every shard of a line spec.
func startServeFleet(sp servefix.Spec) (*serveFleet, error) {
	f := &serveFleet{sp: sp, addrs: make([]string, sp.Shards), srvs: make([]*wire.Server[int], sp.Shards)}
	for j := 0; j < sp.Shards; j++ {
		if err := f.start(j, "127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// start builds shard j and serves it on addr, recording the resolved
// address so a later restart can rebind it.
func (f *serveFleet) start(j int, addr string) error {
	d, meta, err := servefix.BuildLineShard(f.sp, j)
	if err != nil {
		return err
	}
	srv := wire.NewServer[int](d, wire.IntCodec{}, meta, nil)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	f.srvs[j] = srv
	f.addrs[j] = ln.Addr().String()
	go func() {
		defer func() { _ = recover() }() // containment: a dead server must not kill the harness
		_ = srv.Serve(ln)
	}()
	return nil
}

// restart rebuilds shard j (identical build) on its original address.
func (f *serveFleet) restart(j int) error { return f.start(j, f.addrs[j]) }

func (f *serveFleet) close() {
	for _, srv := range f.srvs {
		if srv != nil {
			srv.Close()
		}
	}
}

// RunServe executes the load test. Invariant violations — far points,
// untyped errors — abort the run with an error.
//
//fairnn:rng-source per-client query-point streams seeded from the serve config
func RunServe(cfg ServeConfig) (*ServeResult, error) {
	sp := servefix.Spec{Dataset: "line", N: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed, Radius: cfg.Radius}
	fleet, err := startServeFleet(sp)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	s, err := shard.Connect[int](wire.IntCodec{}, fleet.addrs, shard.RemoteConfig{
		Partitioner: sp.Partitioner(),
		Resilience:  shard.Resilience{Degraded: true, Deadline: 200 * time.Millisecond, Retries: 1},
		DialTimeout: time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// Operator endpoint: the sampler's own health registry over the wire
	// (the server fleet cannot know which shards a client wrote off).
	hs := wire.NewHealthServer(func() []wire.HealthRecord { return shard.HealthRecords(s) })
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer func() { _ = recover() }()
		_ = hs.Serve(hln)
	}()
	defer hs.Close()

	res := &ServeResult{Config: cfg, Queries: cfg.Clients * cfg.QueriesPerClient}
	const killShard = 1
	var done atomic.Int64
	killAt := int64(res.Queries) / 2
	var killOnce sync.Once

	type outcome struct {
		ok, degradedOK, noSample, failed int
		err                              error
	}
	outs := make([]outcome, cfg.Clients)
	// One shared latency histogram across clients: Observe is lock-free
	// and concurrent-safe, and its quantiles are exactly what the serve
	// registry would expose — the gauge and the operator endpoint agree
	// by construction.
	hist := obs.NewHistogram()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer func() {
				if r := recover(); r != nil {
					outs[c].err = fmt.Errorf("serve client %d panicked: %v", c, r)
				}
				wg.Done()
			}()
			r := rng.New(cfg.Seed ^ (0xc11e47<<8 + uint64(c)))
			var st core.QueryStats
			for i := 0; i < cfg.QueriesPerClient; i++ {
				if cfg.Kill && done.Load() >= killAt {
					killOnce.Do(func() {
						fleet.srvs[killShard].Close()
						res.Killed = true
					})
				}
				q := r.Intn(cfg.N)
				t0 := time.Now()
				id, err := s.SampleContext(context.Background(), q, &st)
				hist.Observe(time.Since(t0))
				done.Add(1)
				switch {
				case err == nil:
					if d := float64(id) - float64(q); d > cfg.Radius || d < -cfg.Radius {
						outs[c].err = fmt.Errorf("serve client %d: far point %d for query %d", c, id, q)
						return
					}
					if st.Degraded.Degraded() {
						outs[c].degradedOK++
					} else {
						outs[c].ok++
					}
				case errors.Is(err, core.ErrNoSample):
					outs[c].noSample++
				case errors.Is(err, shard.ErrDegraded):
					outs[c].failed++
				default:
					var se *shard.ShardError
					if errors.As(err, &se) {
						outs[c].failed++
						continue
					}
					outs[c].err = fmt.Errorf("serve client %d: untyped error %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	for c := range outs {
		if outs[c].err != nil {
			return nil, outs[c].err
		}
		res.OK += outs[c].ok
		res.DegradedOK += outs[c].degradedOK
		res.NoSample += outs[c].noSample
		res.Failed += outs[c].failed
	}
	res.P50Micros = quantileMicros(hist, 0.50)
	res.P90Micros = quantileMicros(hist, 0.90)
	res.P99Micros = quantileMicros(hist, 0.99)
	res.P999Micros = quantileMicros(hist, 0.999)
	res.Hist = hist.Snapshot()
	res.QPS = float64(hist.Count()) / wall.Seconds()
	res.QueriesPerHour = res.QPS * 3600
	if cfg.Kill && res.DegradedOK == 0 {
		return nil, fmt.Errorf("serve: server %d was killed mid-run but no query reported degradation", killShard)
	}

	if res.Killed {
		// Restart the killed shard on its original address and verify the
		// client's health registry probes it back in.
		if err := fleet.restart(killShard); err != nil {
			return nil, fmt.Errorf("serve: restart shard %d: %w", killShard, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		r := rng.New(cfg.Seed ^ 0x9ead)
		for time.Now().Before(deadline) {
			var st core.QueryStats
			if _, err := s.SampleContext(context.Background(), r.Intn(cfg.N), &st); err == nil && !st.Degraded.Degraded() {
				res.Readmitted = true
				break
			}
		}
		if !res.Readmitted {
			return nil, fmt.Errorf("serve: restarted shard %d was never probed back in", killShard)
		}
	}

	// Read the final registry through the operator endpoint — the same
	// bytes an external health checker would see.
	hctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res.Health, err = wire.FetchHealth(hctx, hln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("serve: operator health endpoint: %w", err)
	}
	return res, nil
}

// quantileMicros reads the q-quantile of the histogram in microseconds.
func quantileMicros(h *obs.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / 1000
}

// Render writes the aggregate table, the health snapshot, and the
// machine-parseable SERVE / SERVE_HIST lines; scripts/serve_smoke.sh
// folds the SERVE summary into its JSON snapshot.
func (r *ServeResult) Render(w io.Writer) error {
	title := fmt.Sprintf("serve: %d clients x %d queries over %d loopback servers, n=%d (kill=%v)",
		r.Config.Clients, r.Config.QueriesPerClient, r.Config.Shards, r.Config.N, r.Config.Kill)
	rows := [][]string{{
		fmt.Sprintf("%d", r.Queries),
		fmt.Sprintf("%d", r.OK),
		fmt.Sprintf("%d", r.DegradedOK),
		fmt.Sprintf("%d", r.NoSample),
		fmt.Sprintf("%d", r.Failed),
		f2(r.P50Micros),
		f2(r.P90Micros),
		f2(r.P99Micros),
		f2(r.P999Micros),
		f2(r.QPS),
	}}
	if err := WriteTable(w, title, []string{"queries", "ok", "degraded", "no-sample", "failed", "p50 µs", "p90 µs", "p99 µs", "p999 µs", "qps"}, rows); err != nil {
		return err
	}
	for _, h := range r.Health {
		state := "healthy"
		if !h.Healthy {
			state = "down"
		}
		if _, err := fmt.Fprintf(w, "health: shard %d %s (failures=%d skipped=%d probes=%d readmissions=%d)\n",
			h.Shard, state, h.Failures, h.Skipped, h.Probes, h.Readmissions); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "SERVE queries=%d ok=%d degraded_ok=%d no_sample=%d failed=%d p50_us=%.2f p90_us=%.2f p99_us=%.2f p999_us=%.2f qps=%.2f queries_per_hour=%.0f killed=%v readmitted=%v\n",
		r.Queries, r.OK, r.DegradedOK, r.NoSample, r.Failed, r.P50Micros, r.P90Micros, r.P99Micros, r.P999Micros, r.QPS, r.QueriesPerHour, r.Killed, r.Readmitted); err != nil {
		return err
	}
	// Bucket dump: one line per non-empty bucket (upper bound in µs, 0
	// marks the overflow bucket), non-cumulative counts.
	for _, b := range r.Hist {
		if _, err := fmt.Fprintf(w, "SERVE_HIST le_us=%.3f count=%d\n", float64(b.UpperNanos)/1000, b.Count); err != nil {
			return err
		}
	}
	return nil
}

// ServeChaosConfig parameterizes the network chaos schedule: seeded
// kill/restart cycles against a live loopback fleet under query load —
// the process-level analogue of RunChaos's injected faults.
type ServeChaosConfig struct {
	// Cycles is the number of kill → load → restart → recover rounds.
	Cycles int
	// N, Shards, Radius describe the fleet (line spec).
	N      int
	Shards int
	Radius float64
	// QueriesPerPhase is the query count fired while a shard is down and
	// again after its restart.
	QueriesPerPhase int
	Seed            uint64
}

// DefaultServeChaos keeps the schedule in CI-smoke territory.
func DefaultServeChaos() ServeChaosConfig {
	return ServeChaosConfig{Cycles: 3, N: 2000, Shards: 4, Radius: 40, QueriesPerPhase: 120, Seed: 2719}
}

// ServeChaosRow summarizes one kill/restart cycle.
type ServeChaosRow struct {
	Cycle  int
	Killed int
	// DownDegraded counts degraded answers while the shard was dead;
	// DownOK counts answers the surviving fleet still served cleanly
	// (before the registry noticed, or probe successes).
	DownOK, DownDegraded, DownMiss, DownFailed int
	// RecoverQueries is how many queries the re-admission took.
	RecoverQueries int
}

// ServeChaosResult carries the schedule outcome.
type ServeChaosResult struct {
	Config ServeChaosConfig
	Rows   []ServeChaosRow
	// Readmissions is the health registry's final count, summed over
	// shards — it must be at least the number of kills.
	Readmissions int
}

// RunServeChaos executes the kill/restart schedule. Invariants: every
// answered query is near, every error is typed, every down phase reports
// degradation, and every killed server is probed back in after restart.
//
//fairnn:rng-source seeded kill schedule and query streams
func RunServeChaos(cfg ServeChaosConfig) (*ServeChaosResult, error) {
	sp := servefix.Spec{Dataset: "line", N: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed, Radius: cfg.Radius}
	fleet, err := startServeFleet(sp)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	s, err := shard.Connect[int](wire.IntCodec{}, fleet.addrs, shard.RemoteConfig{
		Partitioner: sp.Partitioner(),
		Resilience:  shard.Resilience{Degraded: true, Deadline: 200 * time.Millisecond, Retries: 1},
		DialTimeout: time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	res := &ServeChaosResult{Config: cfg}
	r := rng.New(cfg.Seed)
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		j := r.Intn(cfg.Shards)
		row := ServeChaosRow{Cycle: cycle, Killed: j}
		fleet.srvs[j].Close()

		for qi := 0; qi < cfg.QueriesPerPhase; qi++ {
			q := r.Intn(cfg.N)
			var st core.QueryStats
			id, err := s.SampleContext(context.Background(), q, &st)
			switch {
			case err == nil:
				if d := float64(id) - float64(q); d > cfg.Radius || d < -cfg.Radius {
					return nil, fmt.Errorf("serve chaos cycle %d: far point %d for query %d", cycle, id, q)
				}
				if st.Degraded.Degraded() {
					row.DownDegraded++
				} else {
					row.DownOK++
				}
			case errors.Is(err, core.ErrNoSample):
				row.DownMiss++
			case errors.Is(err, shard.ErrDegraded):
				row.DownFailed++
			default:
				var se *shard.ShardError
				if errors.As(err, &se) {
					row.DownFailed++
					continue
				}
				return nil, fmt.Errorf("serve chaos cycle %d: untyped error %w", cycle, err)
			}
		}
		if row.DownDegraded == 0 {
			return nil, fmt.Errorf("serve chaos cycle %d: shard %d was dead for %d queries but none reported degradation", cycle, j, cfg.QueriesPerPhase)
		}

		if err := fleet.restart(j); err != nil {
			return nil, fmt.Errorf("serve chaos cycle %d: restart shard %d: %w", cycle, j, err)
		}
		recovered := false
		for qi := 0; qi < 50*cfg.Shards; qi++ {
			row.RecoverQueries++
			var st core.QueryStats
			if _, err := s.SampleContext(context.Background(), r.Intn(cfg.N), &st); err == nil && !st.Degraded.Degraded() {
				recovered = true
				break
			}
		}
		if !recovered {
			return nil, fmt.Errorf("serve chaos cycle %d: restarted shard %d was never probed back in", cycle, j)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, h := range s.Health() {
		res.Readmissions += int(h.Readmissions)
	}
	if res.Readmissions < cfg.Cycles {
		return nil, fmt.Errorf("serve chaos: %d kills but only %d readmissions recorded", cfg.Cycles, res.Readmissions)
	}
	return res, nil
}

// Render writes the per-cycle table and totals.
func (r *ServeChaosResult) Render(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Cycle),
			fmt.Sprintf("%d", row.Killed),
			fmt.Sprintf("%d", row.DownOK),
			fmt.Sprintf("%d", row.DownDegraded),
			fmt.Sprintf("%d", row.DownMiss),
			fmt.Sprintf("%d", row.DownFailed),
			fmt.Sprintf("%d", row.RecoverQueries),
		})
	}
	title := fmt.Sprintf("serve chaos: %d seeded kill/restart cycles x %d queries against live servers, S=%d, n=%d",
		r.Config.Cycles, r.Config.QueriesPerPhase, r.Config.Shards, r.Config.N)
	if err := WriteTable(w, title, []string{"cycle", "killed", "ok", "degraded", "no-sample", "failed", "recover-q"}, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\ntotals: %d kills, %d readmissions; 0 invariant violations\n", len(r.Rows), r.Readmissions)
	return err
}
