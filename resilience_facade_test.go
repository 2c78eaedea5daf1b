package fairnn_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fairnn"
)

// TestResilienceOptionsRequireShards pins the builder validation: every
// resilience/fault option is meaningless on an unsharded build and must
// be rejected with ErrBadOption instead of silently ignored.
func TestResilienceOptionsRequireShards(t *testing.T) {
	sets, _ := smallSets()
	opts := map[string]fairnn.Option{
		"WithShardDeadline":   fairnn.WithShardDeadline(time.Second),
		"WithShardRetry":      fairnn.WithShardRetry(2),
		"WithShardBackoff":    fairnn.WithShardBackoff(time.Millisecond, 10*time.Millisecond),
		"WithDegradedMode":    fairnn.WithDegradedMode(),
		"WithShardProbeEvery": fairnn.WithShardProbeEvery(4),
		"WithFaultInjection":  fairnn.WithFaultInjection(fairnn.NewFaultInjector(2, 1)),
	}
	for name, opt := range opts {
		if _, err := fairnn.NewSet(sets, fairnn.Radius(0.6), opt); !errors.Is(err, fairnn.ErrBadOption) {
			t.Errorf("%s without WithShards: err = %v, want ErrBadOption", name, err)
		}
		// The same option WITH shards must build.
		if _, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithShards(2), opt); err != nil {
			t.Errorf("%s with WithShards(2) failed: %v", name, err)
		}
	}
	// Invalid argument values are rejected outright.
	for name, opt := range map[string]fairnn.Option{
		"WithShardDeadline(0)":    fairnn.WithShardDeadline(0),
		"WithShardRetry(-1)":      fairnn.WithShardRetry(-1),
		"WithShardBackoff(0, 0)":  fairnn.WithShardBackoff(0, 0),
		"WithShardProbeEvery(0)":  fairnn.WithShardProbeEvery(0),
		"WithFaultInjection(nil)": fairnn.WithFaultInjection(nil),
		"WithShardBackoff(10, 1)": fairnn.WithShardBackoff(10*time.Millisecond, time.Millisecond),
	} {
		if _, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithShards(2), opt); !errors.Is(err, fairnn.ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", name, err)
		}
	}
}

// TestDegradedModeEndToEnd drives the whole stack through the builder: a
// sharded set sampler with one shard force-failed answers every query
// from the survivors, reports the outage on QueryStats.Degraded and
// Health, and never emits a point owned by the dead shard.
func TestDegradedModeEndToEnd(t *testing.T) {
	sets, q := smallSets()
	const S = 3
	const dead = 2
	inj := fairnn.NewFaultInjector(S, 71, fairnn.FaultSpec{Shards: []int{dead}, ErrRate: fairnn.FaultAlways})
	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6),
		fairnn.WithSeed(140),
		fairnn.WithShards(S),
		fairnn.WithDegradedMode(),
		fairnn.WithShardRetry(1),
		fairnn.WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	var st fairnn.QueryStats
	seen := map[int32]bool{}
	for i := 0; i < 300; i++ {
		id, err := s.SampleContext(context.Background(), q, &st)
		if errors.Is(err, fairnn.ErrNoSample) {
			continue
		}
		if err != nil {
			t.Fatalf("degraded query %d failed: %v", i, err)
		}
		if int(id)%S == dead {
			t.Fatalf("sample %d belongs to the dead shard (round-robin)", id)
		}
		if !st.Degraded.Degraded() {
			t.Fatal("successful degraded query did not set QueryStats.Degraded")
		}
		if got := st.Degraded.LostShards; len(got) != 1 || got[0] != dead {
			t.Fatalf("LostShards = %v, want [%d]", got, dead)
		}
		if c := st.Degraded.Coverage; c <= 0 || c > 1 {
			t.Fatalf("Coverage = %v outside (0, 1]", c)
		}
		seen[id] = true
	}
	// The surviving near-cluster members (ids 0..5 minus the dead
	// shard's) must all be reachable.
	for id := int32(0); id < 6; id++ {
		if int(id)%S != dead && !seen[id] {
			t.Errorf("surviving cluster member %d never sampled", id)
		}
	}
	sh, ok := s.(*fairnn.Sharded[fairnn.Set])
	if !ok {
		t.Fatalf("builder returned %T, want *Sharded[Set]", s)
	}
	h := sh.Health()[dead]
	if h.Healthy || h.Failures == 0 {
		t.Errorf("dead shard health = %+v, want unhealthy with failures", h)
	}
}

// TestFailFastWithoutDegradedMode pins the default posture through the
// façade: with degradation not opted into, a lost shard fails the query
// with a typed *ShardError matching both ErrDegraded and the injected
// cause.
func TestFailFastWithoutDegradedMode(t *testing.T) {
	sets, q := smallSets()
	inj := fairnn.NewFaultInjector(2, 5, fairnn.FaultSpec{Shards: []int{0}, Ops: []fairnn.FaultOp{fairnn.FaultOpArm}, ErrRate: fairnn.FaultAlways})
	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6),
		fairnn.WithSeed(150),
		fairnn.WithShards(2),
		fairnn.WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, serr := s.SampleContext(context.Background(), q, nil)
	var se *fairnn.ShardError
	if !errors.As(serr, &se) {
		t.Fatalf("err = %v, want *ShardError", serr)
	}
	if se.Shard != 0 {
		t.Errorf("ShardError.Shard = %d, want 0", se.Shard)
	}
	if !errors.Is(serr, fairnn.ErrDegraded) || !errors.Is(serr, fairnn.ErrInjected) {
		t.Errorf("error chain lost its sentinels: %v", serr)
	}
	if _, ok := s.Sample(q, nil); ok {
		t.Error("Sample reported ok while a shard is failing without degraded mode")
	}
}

// TestResilienceOptionsIdleBitIdentical pins the façade half of the
// invisibility contract: a sharded sampler with the full resilience
// policy and an idle injector must replay the plain sharded sampler's
// exact same-seed streams.
func TestResilienceOptionsIdleBitIdentical(t *testing.T) {
	sets, q := smallSets()
	build := func(extra ...fairnn.Option) fairnn.Sampler[fairnn.Set] {
		opts := append([]fairnn.Option{fairnn.Radius(0.6), fairnn.WithSeed(160), fairnn.WithShards(3)}, extra...)
		s, err := fairnn.NewSet(sets, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := build()
	armored := build(
		fairnn.WithShardDeadline(time.Second),
		fairnn.WithShardRetry(2),
		fairnn.WithShardBackoff(time.Millisecond, 16*time.Millisecond),
		fairnn.WithDegradedMode(),
		fairnn.WithFaultInjection(fairnn.NewFaultInjector(3, 9)), // idle
	)
	a, b := drawN(plain, q, 80), drawN(armored, q, 80)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: plain %d vs armored %d", i, a[i], b[i])
		}
	}
	ka, kb := plain.SampleK(q, 40, nil), armored.SampleK(q, 40, nil)
	if len(ka) != len(kb) {
		t.Fatalf("SampleK lengths diverged: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("SampleK draw %d diverged: %d vs %d", i, ka[i], kb[i])
		}
	}
}

// panicAfterSampler panics on the nth Sample/SampleContext call — the
// "poisoned query" a batch fan-out must contain. The counter is atomic:
// batch workers share the sampler.
type panicAfterSampler struct {
	n     int64
	calls atomic.Int64
}

func (p *panicAfterSampler) bump() {
	if p.calls.Add(1) == p.n {
		panic("poisoned query")
	}
}

func (p *panicAfterSampler) Sample(q int, st *fairnn.QueryStats) (int32, bool) {
	p.bump()
	return int32(q), true
}

func (p *panicAfterSampler) SampleContext(ctx context.Context, q int, st *fairnn.QueryStats) (int32, error) {
	p.bump()
	return int32(q), nil
}

// TestSampleBatchPanicContained pins the batch fan-out's containment: a
// worker panic drains the batch (no wedged WaitGroup, no leaked
// goroutine) and resurfaces on the caller as a catchable *PanicError
// carrying the worker's stack — also when one worker runs the batch on
// the caller's goroutine.
func TestSampleBatchPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			queries := make([]int, 64)
			defer func() {
				r := recover()
				pe, ok := r.(*fairnn.PanicError)
				if !ok {
					t.Fatalf("recovered %#v, want *PanicError", r)
				}
				if pe.Recovered != "poisoned query" || len(pe.Stack) == 0 {
					t.Errorf("PanicError = {Recovered: %v, stack %d bytes}, want the worker's panic with stack", pe.Recovered, len(pe.Stack))
				}
			}()
			fairnn.SampleBatch[int](&panicAfterSampler{n: 10}, queries, workers)
			t.Fatal("SampleBatch did not re-panic")
		})
	}
}

// TestSampleBatchContextPanicAsError pins the context variant's calmer
// contract: the worker panic becomes the batch error (a *PanicError), no
// re-panic, and the batch still returns.
func TestSampleBatchContextPanicAsError(t *testing.T) {
	queries := make([]int, 64)
	_, err := fairnn.SampleBatchContext[int](context.Background(), &panicAfterSampler{n: 10}, queries, 4)
	var pe *fairnn.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("batch err = %v, want *PanicError", err)
	}
	if pe.Recovered != "poisoned query" {
		t.Errorf("Recovered = %v, want the worker's panic value", pe.Recovered)
	}
}
