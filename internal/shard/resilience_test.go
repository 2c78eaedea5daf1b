package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/stats"
)

// buildLineCfg is buildLine with the full Config surface (resilience
// policy, fault injector).
func buildLineCfg(t *testing.T, n int, radius float64, cfg Config) *Sharded[int] {
	t.Helper()
	s, err := BuildConfig[int](intSpace(), allCollide{}, constParams(lsh.Params{K: 1, L: 1}), lineDataset(n), radius, core.IndependentOptions{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// killShardSpec makes every backend call against shard j fail instantly.
func killShardSpec(j int) fault.Spec {
	return fault.Spec{Shards: []int{j}, ErrRate: fault.Always}
}

// survivorBall lists the ball points [0, ballSize) NOT owned by the dead
// shard under part — the population a degraded draw must be uniform
// over.
func survivorBall(part Partitioner, n, shards, ballSize, dead int) []int32 {
	var out []int32
	for i := 0; i < ballSize; i++ {
		if part.Assign(i, n, shards) != dead {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestDegradedUniformOverSurvivors is the degraded-mode acceptance gate:
// for S ∈ {2, 4, 8}, each shard killed in turn (plus the adversarially
// unbalanced range partition), the output stream must be exactly uniform
// over the *surviving* shards' union ball — seeded chi-squared must not
// reject, TV must sit near the noise floor, and no dead-shard point may
// ever appear. DegradedInfo must name the lost shard with a sane
// coverage fraction.
func TestDegradedUniformOverSurvivors(t *testing.T) {
	const ballSize = 16
	const n = 256
	const reps = 8000
	type pcase struct {
		name string
		mk   func(S int) Partitioner
		kill func(S int) []int
	}
	cases := []pcase{
		{"round-robin", func(int) Partitioner { return RoundRobin{} }, func(S int) []int {
			all := make([]int, S)
			for j := range all {
				all[j] = j
			}
			return all
		}},
		// The unbalanced partition: shard 0 owns ball points {0..7}
		// outright, the rest stripe over shards 1+. Killing shard 0 wipes
		// half the ball; killing shard 1 takes an uneven bite.
		{"range", func(int) Partitioner { return rangePart{cut: 8} }, func(int) []int { return []int{0, 1} }},
	}
	for _, pc := range cases {
		for _, S := range []int{2, 4, 8} {
			for _, dead := range pc.kill(S) {
				t.Run(fmt.Sprintf("%s/S=%d/kill=%d", pc.name, S, dead), func(t *testing.T) {
					part := pc.mk(S)
					domain := survivorBall(part, n, S, ballSize, dead)
					if len(domain) == 0 {
						t.Skip("dead shard owns the whole ball")
					}
					inj := fault.New(S, 7, killShardSpec(dead))
					s := buildLineCfg(t, n, ballSize-1, Config{
						Shards:      S,
						Partitioner: part,
						Seed:        500 + uint64(S),
						Resilience:  Resilience{Degraded: true},
						Injector:    inj,
					})
					alive := map[int32]bool{}
					for _, id := range domain {
						alive[id] = true
					}
					freq := stats.NewFrequency()
					var st core.QueryStats
					for i := 0; i < reps; i++ {
						id, err := s.SampleContext(context.Background(), 0, &st)
						if err != nil {
							t.Fatalf("degraded query failed: %v", err)
						}
						if !alive[id] {
							t.Fatalf("sample %d came from the dead shard %d", id, dead)
						}
						if !st.Degraded.Degraded() {
							t.Fatal("QueryStats.Degraded not set on a degraded query")
						}
						freq.Observe(id)
					}
					if got := st.Degraded.LostShards; len(got) != 1 || got[0] != dead {
						t.Errorf("LostShards = %v, want [%d]", got, dead)
					}
					if st.Degraded.LostPoints != s.ShardSizes()[dead] {
						t.Errorf("LostPoints = %d, want %d", st.Degraded.LostPoints, s.ShardSizes()[dead])
					}
					if c := st.Degraded.Coverage; c <= 0 || c > 1 {
						t.Errorf("Coverage = %v outside (0, 1]", c)
					}
					if tv := freq.TVFromUniform(domain); tv > 0.03 {
						t.Errorf("TV over survivors = %v, want < 0.03", tv)
					}
					if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
						t.Errorf("chi-square rejects uniformity over survivors: p = %v", p)
					}
				})
			}
		}
	}
}

// TestIdleInjectorBitEquivalence pins the contract that the resilient
// path is invisible when nothing fires: a sampler with deadlines,
// retries, degraded mode AND a configured-but-idle injector must produce
// bit-identical same-seed sample streams to the plain sampler — single
// draws, bulk draws, and stats alike.
func TestIdleInjectorBitEquivalence(t *testing.T) {
	const n = 192
	const S = 4
	plain := buildLine(t, n, 15, S, RoundRobin{}, 909)
	idle := buildLineCfg(t, n, 15, Config{
		Shards: S,
		Seed:   909,
		Resilience: Resilience{
			Deadline: 100 * time.Millisecond,
			Retries:  3,
			Degraded: true,
		},
		Injector: fault.New(S, 42, fault.Spec{}), // no rates: idle
	})
	if !idle.ResiliencePolicy().Degraded {
		t.Fatal("resilience policy not carried into the sampler")
	}
	var stA, stB core.QueryStats
	for i := 0; i < 400; i++ {
		a, okA := plain.Sample(7, &stA)
		b, okB := idle.Sample(7, &stB)
		if a != b || okA != okB {
			t.Fatalf("draw %d diverged: plain (%d, %v) vs idle-injected (%d, %v)", i, a, okA, b, okB)
		}
		if stB.Degraded.Degraded() {
			t.Fatal("idle injector produced a degraded query")
		}
	}
	ka := plain.SampleK(7, 128, nil)
	kb := idle.SampleK(7, 128, nil)
	if len(ka) != len(kb) {
		t.Fatalf("bulk draw lengths diverged: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("bulk draw %d diverged: %d vs %d", i, ka[i], kb[i])
		}
	}
	for _, h := range idle.Health() {
		if !h.Healthy || h.Failures != 0 {
			t.Errorf("shard %d health touched by idle injector: %+v", h.Shard, h)
		}
	}
}

// TestFailFastTypedError pins the degradation-off contract: a shard that
// exhausts its budget fails the query immediately with a *ShardError
// naming the shard and operation, matching both ErrDegraded and the
// injected cause — and the rejection never hangs the caller.
func TestFailFastTypedError(t *testing.T) {
	const S = 3
	inj := fault.New(S, 11, fault.Spec{Shards: []int{1}, Ops: []fault.Op{fault.OpArm}, ErrRate: fault.Always})
	s := buildLineCfg(t, 90, 9, Config{
		Shards:     S,
		Seed:       31,
		Resilience: Resilience{Retries: 1},
		Injector:   inj,
	})
	_, err := s.SampleContext(context.Background(), 0, nil)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.Shard != 1 || se.Op != "arm" {
		t.Errorf("ShardError = {Shard: %d, Op: %q}, want shard 1 op arm", se.Shard, se.Op)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Error("ShardError does not match ErrDegraded")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("cause chain lost the injected error: %v", err)
	}
	if _, ok := s.Sample(0, nil); ok {
		t.Error("Sample reported ok on a failed shard without degraded mode")
	}
	// The retry budget was spent: first arm call + 1 retry = 2 injector
	// calls on shard 1 for the first query.
	if got := inj.Calls(1, fault.OpArm); got < 2 {
		t.Errorf("injector saw %d arm calls on shard 1, want ≥ 2 (retry budget)", got)
	}
}

// TestStallWithinDeadline pins the anti-hang contract: a shard stalled
// on every operation blocks only until its per-attempt deadline, and in
// degraded mode the query still answers from the survivors — promptly,
// and without leaking goroutines.
func TestStallWithinDeadline(t *testing.T) {
	const S = 4
	baseline := runtime.NumGoroutine()
	inj := fault.New(S, 13, fault.Spec{Shards: []int{2}, StallRate: fault.Always})
	s := buildLineCfg(t, 128, 15, Config{
		Shards: S,
		Seed:   77,
		Resilience: Resilience{
			Deadline: 25 * time.Millisecond,
			Degraded: true,
		},
		Injector: inj,
	})
	start := time.Now()
	var st core.QueryStats
	id, err := s.SampleContext(context.Background(), 0, &st)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded query failed under stall: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("query took %v — the stall was not bounded by the deadline", elapsed)
	}
	if !st.Degraded.Degraded() || len(st.Degraded.LostShards) != 1 || st.Degraded.LostShards[0] != 2 {
		t.Errorf("Degraded = %+v, want shard 2 lost", st.Degraded)
	}
	if (RoundRobin{}).Assign(int(id), 128, S) == 2 {
		t.Errorf("sample %d belongs to the stalled shard", id)
	}
	// More queries: the health registry should now fail fast (skip the
	// stalled shard) instead of re-paying the deadline every time.
	start = time.Now()
	for i := 0; i < 20; i++ {
		if _, err := s.SampleContext(context.Background(), 0, nil); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("20 follow-up queries took %v — fail-fast gate not engaged", elapsed)
	}
	h := s.Health()[2]
	if h.Healthy || h.Failures == 0 || h.Skipped == 0 {
		t.Errorf("stalled shard health = %+v, want unhealthy with skips", h)
	}
	waitForGoroutines(t, baseline)
}

// waitForGoroutines polls until the goroutine count settles back to the
// baseline (small slack for runtime housekeeping) — the leak check.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicInjectionContained pins panic containment on the query path:
// a shard panicking on its segment reports mid-draw must not crash the
// process — in degraded mode the draw continues over the survivors, and
// the recovered panic (with stack) is retrievable from the health-driven
// failure accounting.
func TestPanicInjectionContained(t *testing.T) {
	const S = 2
	inj := fault.New(S, 17, fault.Spec{Shards: []int{1}, Ops: []fault.Op{fault.OpSegment}, PanicRate: fault.Always})
	s := buildLineCfg(t, 64, 7, Config{
		Shards:     S,
		Seed:       55,
		Resilience: Resilience{Degraded: true},
		Injector:   inj,
	})
	var st core.QueryStats
	for i := 0; i < 50; i++ {
		id, err := s.SampleContext(context.Background(), 0, &st)
		if err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
		if int(id)%S == 1 {
			t.Fatalf("sample %d came from the panicking shard", id)
		}
	}
	if h := s.Health()[1]; h.Healthy || h.Failures == 0 {
		t.Errorf("panicking shard health = %+v, want unhealthy", h)
	}
	// Degradation off: the contained panic surfaces as a typed error
	// wrapping *core.PanicError with the stack attached.
	s2 := buildLineCfg(t, 64, 7, Config{
		Shards:   S,
		Seed:     56,
		Injector: fault.New(S, 17, fault.Spec{Shards: []int{1}, Ops: []fault.Op{fault.OpSegment}, PanicRate: fault.Always}),
	})
	_, err := s2.SampleContext(context.Background(), 0, nil)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *core.PanicError in the chain", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic lost its stack")
	}
	if _, ok := pe.Recovered.(fault.PanicValue); !ok {
		t.Errorf("recovered value = %#v, want fault.PanicValue", pe.Recovered)
	}
}

// TestHealthProbeReadmission pins the heal path: a shard whose outage is
// bounded (Spec.Limit) is probed on the registry's cadence and
// re-admitted after its first successful arm — later queries answer at
// full strength again.
func TestHealthProbeReadmission(t *testing.T) {
	const S = 2
	// Shard 0's first 3 arm calls fail, then it heals.
	inj := fault.New(S, 23, fault.Spec{Shards: []int{0}, Ops: []fault.Op{fault.OpArm}, ErrRate: fault.Always, Limit: 3})
	s := buildLineCfg(t, 64, 7, Config{
		Shards: S,
		Seed:   88,
		Resilience: Resilience{
			Degraded:   true,
			ProbeEvery: 4,
		},
		Injector: inj,
	})
	var st core.QueryStats
	for i := 0; i < 60; i++ {
		if _, err := s.SampleContext(context.Background(), 0, &st); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	h := s.Health()[0]
	if !h.Healthy {
		t.Fatalf("shard 0 not re-admitted after its outage: %+v", h)
	}
	if h.Readmissions == 0 || h.Probes == 0 {
		t.Errorf("health = %+v, want probes and a re-admission", h)
	}
	if st.Degraded.Degraded() {
		t.Errorf("query after re-admission still degraded: %+v", st.Degraded)
	}
}

// TestDegradedAllShardsLost pins the exhaustion edge: when every shard
// is lost even degraded mode cannot answer, and the query fails with
// ErrDegraded instead of hanging or fabricating output.
func TestDegradedAllShardsLost(t *testing.T) {
	const S = 2
	inj := fault.New(S, 29, fault.Spec{Ops: []fault.Op{fault.OpArm}, ErrRate: fault.Always})
	s := buildLineCfg(t, 64, 7, Config{
		Shards:     S,
		Seed:       99,
		Resilience: Resilience{Degraded: true},
		Injector:   inj,
	})
	_, err := s.SampleContext(context.Background(), 0, nil)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
}

// TestBuildPanicTypedError pins satellite coverage for the parallel
// build: a worker panic during construction surfaces as a typed
// *core.BuildError naming the shard (and point, when point-scoped) with
// the stack captured — not a process crash, not a wedged WaitGroup.
func TestBuildPanicTypedError(t *testing.T) {
	// paramsFor panicking for one shard: shard-scoped attribution.
	_, err := BuildConfig[int](intSpace(), allCollide{}, func(n int) lsh.Params {
		if n != 64 { // shards 1 and 2 under this split; shard 0 has 64
			panic("paramsFor poisoned")
		}
		return lsh.Params{K: 1, L: 1}
	}, lineDataset(96), 9, core.IndependentOptions{}, Config{Shards: 3, Partitioner: rangePart{cut: 64}, Seed: 7})
	var be *core.BuildError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *core.BuildError", err)
	}
	if be.Shard < 0 {
		t.Errorf("BuildError did not name the shard: %+v", be)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Error("BuildError lost the panic stack")
	}

	// A poisoned point panicking inside the signature pass: point-scoped
	// attribution on the owning shard.
	_, err = BuildConfig[int](intSpace(), poisonFamily{bad: 42}, constParams(lsh.Params{K: 1, L: 1}), lineDataset(96), 9, core.IndependentOptions{}, Config{Shards: 2, Partitioner: RoundRobin{}, Seed: 7})
	be = nil
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *core.BuildError", err)
	}
	if be.Shard != 42%2 {
		t.Errorf("BuildError.Shard = %d, want %d (owner of the poisoned point)", be.Shard, 42%2)
	}
	if be.Point < 0 {
		t.Errorf("BuildError did not name the point: %+v", be)
	}
}

// poisonFamily panics when hashing one specific point value — the
// "poisoned point" a user callback can always contain.
type poisonFamily struct{ bad int }

func (f poisonFamily) New(r *rng.Source) lsh.Func[int] {
	bad := f.bad
	return func(p int) uint64 {
		if p == bad {
			panic(fmt.Sprintf("poisoned point %d", p))
		}
		return 0
	}
}

func (poisonFamily) CollisionProb(float64) float64 { return 1 }

// TestFaultedConcurrentStress hammers a degraded sampler from many
// goroutines (run under -race in CI with GOMAXPROCS > 1): injected
// errors and stalls on one shard must never corrupt another query's
// draw, wedge a worker, or leak goroutines.
func TestFaultedConcurrentStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	baseline := runtime.NumGoroutine()
	const S = 4
	inj := fault.New(S, 31,
		fault.Spec{Shards: []int{3}, ErrRate: 0.5},
		fault.Spec{Shards: []int{1}, Ops: []fault.Op{fault.OpSegment}, StallRate: 0.05},
	)
	s := buildLineCfg(t, 128, 15, Config{
		Shards: S,
		Seed:   404,
		Resilience: Resilience{
			Deadline: 10 * time.Millisecond,
			Retries:  1,
			Degraded: true,
		},
		Injector: inj,
	})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var st core.QueryStats
			for i := 0; i < 150; i++ {
				id, err := s.SampleContext(context.Background(), 0, &st)
				if err != nil && !errors.Is(err, core.ErrNoSample) && !errors.Is(err, ErrDegraded) {
					done <- fmt.Errorf("worker %d query %d: unexpected error %v", w, i, err)
					return
				}
				if err == nil && (id < 0 || id > 15) {
					done <- fmt.Errorf("worker %d: far point %d", w, id)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitForGoroutines(t, baseline)
}
