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
	"fairnn/internal/rng"
	"fairnn/internal/servefix"
	"fairnn/internal/shard"
	"fairnn/internal/wire"
)

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

// ServeChaosConfig parameterizes the network chaos schedule: seeded
// kill/restart cycles against a live loopback fleet under concurrent
// query load — the process-level analogue of RunChaos's injected faults.
type ServeChaosConfig struct {
	// Cycles is the number of kill → load → restart → recover rounds.
	Cycles int
	// N, Shards, Radius describe the fleet (line spec). Shards must be at
	// least 2, so a kill leaves a survivor to degrade onto.
	N      int
	Shards int
	Radius float64
	// QueriesPerPhase is each cycle's query count, fired by
	// serveChaosCallers concurrent callers; the shard is killed once half
	// of them are done.
	QueriesPerPhase int
	Seed            uint64
}

// serveChaosCallers is how many concurrent callers share a cycle's
// queries, so requests are in flight on the dying server's connections
// when the kill lands.
const serveChaosCallers = 4

// DefaultServeChaos keeps the schedule in CI-smoke territory.
func DefaultServeChaos() ServeChaosConfig {
	return ServeChaosConfig{Cycles: 3, N: 2000, Shards: 4, Radius: 40, QueriesPerPhase: 120, Seed: 2719}
}

// ServeChaosRow summarizes one kill/restart cycle.
type ServeChaosRow struct {
	Cycle  int
	Killed int
	// DownOK, DownDegraded, DownMiss and DownFailed partition the cycle's
	// queries, fired across the kill: clean answers (before the kill, or
	// before the registry noticed it), degraded answers, legitimate
	// misses, and typed failures.
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
	// health is the final registry as the operator endpoint served it.
	health []wire.HealthRecord
}

// RunServeChaos executes the kill/restart schedule. Invariants: every
// answered query is near, every error is typed, no caller panics, every
// cycle reports degradation after its kill, every killed server is
// probed back in after restart, and the operator health endpoint serves
// one record per shard.
//
//fairnn:rng-source seeded kill schedule and query streams
func RunServeChaos(cfg ServeChaosConfig) (*ServeChaosResult, error) {
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("serve chaos needs at least 2 shards, got %d: killing the only shard leaves no survivor to degrade onto", cfg.Shards)
	}
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
	go hs.Serve(hln)
	defer hs.Close()

	res := &ServeChaosResult{Config: cfg}
	r := rng.New(cfg.Seed)
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		j := r.Intn(cfg.Shards)
		var (
			tallies [serveChaosCallers]ServeChaosRow
			errs    [serveChaosCallers]error
			done    atomic.Int64
			kill    sync.Once
			wg      sync.WaitGroup
		)
		for c := range serveChaosCallers {
			cr := rng.New(r.Uint64())
			queries := cfg.QueriesPerPhase / serveChaosCallers
			if c < cfg.QueriesPerPhase%serveChaosCallers {
				queries++
			}
			wg.Add(1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						errs[c] = fmt.Errorf("caller %d panicked: %v", c, p)
					}
					wg.Done()
				}()
				for range queries {
					if done.Load() >= int64(cfg.QueriesPerPhase/2) {
						kill.Do(func() { fleet.srvs[j].Close() })
					}
					q := cr.Intn(cfg.N)
					var st core.QueryStats
					id, err := s.SampleContext(context.Background(), q, &st)
					done.Add(1)
					if errs[c] = tallies[c].tally(id, q, err, &st, cfg.Radius); errs[c] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		row := ServeChaosRow{Cycle: cycle, Killed: j}
		for c, t := range tallies {
			if errs[c] != nil {
				return nil, fmt.Errorf("serve chaos cycle %d: %w", cycle, errs[c])
			}
			row.DownOK += t.DownOK
			row.DownDegraded += t.DownDegraded
			row.DownMiss += t.DownMiss
			row.DownFailed += t.DownFailed
		}
		if row.DownDegraded == 0 {
			return nil, fmt.Errorf("serve chaos cycle %d: shard %d was killed halfway through %d queries but none reported degradation", cycle, j, cfg.QueriesPerPhase)
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

	// Read the final registry through the operator endpoint — the same
	// bytes an external health checker would see.
	hctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if res.health, err = wire.FetchHealth(hctx, hln.Addr().String()); err != nil {
		return nil, fmt.Errorf("serve chaos: operator health endpoint: %w", err)
	}
	if len(res.health) != cfg.Shards {
		return nil, fmt.Errorf("serve chaos: operator health endpoint served %d records for %d shards", len(res.health), cfg.Shards)
	}
	for _, h := range res.health {
		res.Readmissions += int(h.Readmissions)
	}
	if res.Readmissions < cfg.Cycles {
		return nil, fmt.Errorf("serve chaos: %d kills but only %d readmissions recorded", cfg.Cycles, res.Readmissions)
	}
	return res, nil
}

// tally files one answer into the row's outcome counts. A far point or
// an untyped error is an invariant violation.
func (row *ServeChaosRow) tally(id int32, q int, err error, st *core.QueryStats, radius float64) error {
	switch {
	case err == nil:
		if d := float64(id) - float64(q); d > radius || d < -radius {
			return fmt.Errorf("far point %d for query %d", id, q)
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
		if !errors.As(err, &se) {
			return fmt.Errorf("untyped error %w", err)
		}
		row.DownFailed++
	}
	return nil
}

// Render writes the per-cycle table, the health records and totals.
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
	title := fmt.Sprintf("serve chaos: %d seeded kill/restart cycles x %d queries from %d concurrent callers against live servers, S=%d, n=%d",
		r.Config.Cycles, r.Config.QueriesPerPhase, serveChaosCallers, r.Config.Shards, r.Config.N)
	if err := WriteTable(w, title, []string{"cycle", "killed", "ok", "degraded", "no-sample", "failed", "recover-q"}, rows); err != nil {
		return err
	}
	for _, h := range r.health {
		if _, err := fmt.Fprintf(w, "health: shard %d healthy=%v failures=%d skipped=%d probes=%d readmissions=%d\n",
			h.Shard, h.Healthy, h.Failures, h.Skipped, h.Probes, h.Readmissions); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\ntotals: %d kills, %d readmissions; 0 invariant violations\n", len(r.Rows), r.Readmissions)
	return err
}
