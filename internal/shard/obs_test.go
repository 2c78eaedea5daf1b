package shard

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/obs"
	"fairnn/internal/wire"
)

// Telemetry over the backend stack: what the observed layer records —
// one span and one latency observation per whole backend call — must
// match what the queries themselves report through QueryStats.

const lostNote = "shard lost: leaving union pool"

// traced is one traced query: its stats, its error, and its root spans
// grouped by op.
type traced struct {
	st    core.QueryStats
	err   error
	spans map[string][]*obs.Span
}

// tracedQuery runs one Sample on s (built with TraceEveryN: 1) and reads
// back the trace it published.
func tracedQuery(t *testing.T, s *Sharded[int], reg *obs.Registry, q int) traced {
	t.Helper()
	var r traced
	_, r.err = s.SampleContext(context.Background(), q, &r.st)
	recent := reg.Tracer().Recent()
	if len(recent) == 0 {
		t.Fatal("no trace published")
	}
	r.spans = map[string][]*obs.Span{}
	for _, sp := range recent[len(recent)-1].Spans {
		if !slices.Contains(opNames[:], sp.Op) {
			t.Fatalf("root span with unknown op %q", sp.Op)
		}
		r.spans[sp.Op] = append(r.spans[sp.Op], sp)
	}
	return r
}

// onShard returns the spans that ran against shard j.
func onShard(spans []*obs.Span, j int) []*obs.Span {
	var out []*obs.Span
	for _, sp := range spans {
		if sp.Shard == j {
			out = append(out, sp)
		}
	}
	return out
}

// TestTracedSpanTree reads the span trees of traced queries under an
// injector schedule: one arm span per shard, one segment span per
// rejection round on the shard QueryStats.ShardRounds charges, one pick
// span on ShardChosen, span Attempts equal to the retries the injector
// forced, the fail-fast cause on a health-gated op, and the loss note
// exactly where a shard leaves the union pool — and nowhere else.
func TestTracedSpanTree(t *testing.T) {
	const S, n = 3, 90
	build := func(res Resilience, inj *fault.Injector) (*Sharded[int], *obs.Registry) {
		reg := obs.NewRegistry()
		return buildLineCfg(t, n, 9, Config{
			Shards: S, Seed: 61, Resilience: res, Injector: inj, Obs: reg, TraceEveryN: 1,
		}), reg
	}

	t.Run("shape+retries", func(t *testing.T) {
		// Shard 1 fails its first arm call; shard 0 fails 30% of its
		// segment calls. Retries absorb every fault at this seed.
		inj := fault.New(S, 5,
			fault.Spec{Shards: []int{1}, Ops: []fault.Op{fault.OpArm}, ErrRate: fault.Always, Limit: 1},
			fault.Spec{Shards: []int{0}, Ops: []fault.Op{fault.OpSegment}, ErrRate: 0.3},
		)
		s, reg := build(Resilience{Retries: 8, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond}, inj)
		ops := []fault.Op{fault.OpArm, fault.OpSegment, fault.OpPick}
		retried := 0
		for i := 0; i < 40; i++ {
			var before [S][numOps]uint64
			for j := range S {
				for k, op := range ops {
					before[j][k] = inj.Calls(j, op)
				}
			}
			r := tracedQuery(t, s, reg, i%n)
			if r.err != nil {
				t.Fatalf("query %d: %v", i, r.err)
			}
			if len(r.spans["arm"]) != S {
				t.Fatalf("query %d: %d arm spans, want %d", i, len(r.spans["arm"]), S)
			}
			if got := len(r.spans["segment"]); got != r.st.Rounds {
				t.Fatalf("query %d: %d segment spans, %d rounds", i, got, r.st.Rounds)
			}
			for j := range S {
				if got := len(onShard(r.spans["arm"], j)); got != 1 {
					t.Fatalf("query %d: shard %d has %d arm spans, want 1", i, j, got)
				}
				if got, want := len(onShard(r.spans["segment"], j)), r.st.ShardRounds[j]; got != want {
					t.Fatalf("query %d: shard %d has %d segment spans, ShardRounds says %d", i, j, got, want)
				}
				// Every attempt is one injector call: the first per span,
				// plus one per retry the span counts.
				for k, op := range ops {
					spans := onShard(r.spans[opNames[k]], j)
					calls := len(spans)
					for _, sp := range spans {
						calls += sp.Attempts
						retried += sp.Attempts
						if sp.Err != "" || len(sp.Notes) != 0 {
							t.Fatalf("query %d: %s span on shard %d: err %q notes %v", i, opNames[k], j, sp.Err, sp.Notes)
						}
					}
					if got := inj.Calls(j, op) - before[j][k]; got != uint64(calls) {
						t.Fatalf("query %d: shard %d %s: injector saw %d calls, spans account for %d", i, j, opNames[k], got, calls)
					}
				}
			}
			picks := r.spans["pick"]
			if !r.st.Found || len(picks) != 1 || picks[0].Shard != r.st.ShardChosen {
				t.Fatalf("query %d: found=%v, pick spans %d, want one on ShardChosen %d", i, r.st.Found, len(picks), r.st.ShardChosen)
			}
			if i == 0 {
				if a := onShard(r.spans["arm"], 1)[0].Attempts; a != 1 {
					t.Fatalf("shard 1's first arm: Attempts = %d, want 1 (one injected failure, one retry)", a)
				}
			}
		}
		if retried < 2 {
			t.Fatalf("only %d retries across 40 queries — the schedule is not exercising retries", retried)
		}
	})

	t.Run("health-gate", func(t *testing.T) {
		inj := fault.New(S, 7, fault.Spec{Shards: []int{2}, Ops: []fault.Op{fault.OpArm}, ErrRate: fault.Always})
		s, reg := build(Resilience{Degraded: true, ProbeEvery: 1000}, inj)
		first := tracedQuery(t, s, reg, 0)
		if first.err != nil {
			t.Fatal(first.err)
		}
		arm := onShard(first.spans["arm"], 2)[0]
		if !strings.Contains(arm.Err, fault.ErrInjected.Error()) {
			t.Fatalf("failed arm span err = %q, want the injected cause", arm.Err)
		}
		calls := inj.Calls(2, fault.OpArm)
		second := tracedQuery(t, s, reg, 0)
		if second.err != nil {
			t.Fatal(second.err)
		}
		arm = onShard(second.spans["arm"], 2)[0]
		if !strings.Contains(arm.Err, ErrShardDown.Error()) {
			t.Fatalf("health-gated arm span err = %q, want %q", arm.Err, ErrShardDown)
		}
		if !slices.Contains(arm.Notes, "health gate: shard down, failing fast") {
			t.Fatalf("health-gated arm span notes = %v", arm.Notes)
		}
		if inj.Calls(2, fault.OpArm) != calls {
			t.Fatal("the health gate let a call through to the shard")
		}
		if got := second.st.Degraded.LostShards; !slices.Equal(got, []int{2}) {
			t.Fatalf("LostShards = %v, want [2]", got)
		}
	})

	// Shard 1 fails every segment call; the first query that picks it
	// loses it mid-draw.
	for _, degraded := range []bool{true, false} {
		t.Run("segment-loss/degraded="+strconv.FormatBool(degraded), func(t *testing.T) {
			inj := fault.New(S, 9, fault.Spec{Shards: []int{1}, Ops: []fault.Op{fault.OpSegment}, ErrRate: fault.Always})
			s, reg := build(Resilience{Degraded: degraded}, inj)
			for i := 0; i < 50; i++ {
				r := tracedQuery(t, s, reg, 0)
				failed := onShard(r.spans["segment"], 1)
				if len(failed) == 0 {
					continue
				}
				if len(failed) != 1 || failed[0].Err == "" {
					t.Fatalf("query %d: shard 1 segment spans %d (err %q), want one failed span", i, len(failed), failed[0].Err)
				}
				noted := 0
				for _, spans := range r.spans {
					for _, sp := range spans {
						if slices.Contains(sp.Notes, lostNote) {
							noted++
						}
					}
				}
				if degraded {
					if r.err != nil || !slices.Equal(r.st.Degraded.LostShards, []int{1}) {
						t.Fatalf("query %d: err %v, lost %v; want an answer without shard 1", i, r.err, r.st.Degraded.LostShards)
					}
					if noted != 1 || !slices.Equal(failed[0].Notes, []string{lostNote}) {
						t.Fatalf("query %d: %d loss notes, failed span notes %v; want the one note on the failed span", i, noted, failed[0].Notes)
					}
				} else {
					var se *ShardError
					if !errors.As(r.err, &se) || se.Shard != 1 || se.Op != "segment" {
						t.Fatalf("query %d: err = %v, want shard 1's segment ShardError", i, r.err)
					}
					if noted != 0 {
						t.Fatalf("query %d: %d loss notes with degradation off — no shard left the pool", i, noted)
					}
				}
				return
			}
			t.Fatal("no query picked shard 1 in 50 tries")
		})
	}
}

// checkOpMetrics drives Sample and SampleKInto calls through s — built
// over a round-robin line, so global id i lives on shard i mod S — and
// checks the per-(shard, op) seam latency histograms against what the
// calls report: S arms per call, one segment per rejection round on the
// shard it charged, one pick per found draw on the shard that produced
// it. It returns the segment calls per shard.
func checkOpMetrics(t *testing.T, s *Sharded[int], reg *obs.Registry, ball int) []int {
	t.Helper()
	S := s.Shards()
	calls := 0
	segs, picks := make([]int, S), make([]int, S)
	var st core.QueryStats
	for i := 0; i < 60; i++ {
		id, ok := s.Sample(i%ball, &st)
		calls++
		for j, r := range st.ShardRounds {
			segs[j] += r
		}
		if ok {
			if int(id)%S != st.ShardChosen {
				t.Fatalf("id %d from shard %d, but ShardChosen = %d", id, int(id)%S, st.ShardChosen)
			}
			picks[st.ShardChosen]++
		}
	}
	dst := make([]int32, 0, 8)
	for i := 0; i < 10; i++ {
		// The bulk path arms in parallel and charges every draw's rounds
		// to one ShardRounds.
		dst = s.SampleKInto(i%ball, 8, dst, &st)
		calls++
		for j, r := range st.ShardRounds {
			segs[j] += r
		}
		for _, id := range dst {
			picks[int(id)%S]++
		}
	}
	for j := range S {
		for k, want := range []int{calls, segs[j], picks[j]} {
			l := obs.Labels("shard", strconv.Itoa(j), "op", opNames[k])
			if got := reg.Histogram("fairnn_shard_op_latency_seconds", l, "").Count(); got != uint64(want) {
				t.Errorf("shard %d op=%s: %d latency observations, want %d", j, opNames[k], got, want)
			}
			if e := reg.Counter("fairnn_shard_op_errors_total", l, "").Value(); e != 0 {
				t.Errorf("shard %d op=%s: %d errors on a fault-free run", j, opNames[k], e)
			}
		}
	}
	if segs[0]+segs[S-1] == 0 || picks[0]+picks[S-1] == 0 {
		t.Fatalf("workload too thin: segments %v, picks %v", segs, picks)
	}
	return segs
}

// TestShardOpMetrics pins the per-op seam metrics in process: every arm,
// segment report and pick lands once in fairnn_shard_op_latency_seconds,
// on the plain stack plus telemetry and under retries alike — one
// observation per whole call, however many attempts it took.
func TestShardOpMetrics(t *testing.T) {
	const S, n, ball = 3, 192, 16
	t.Run("obs", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := buildLineCfg(t, n, ball-1, Config{Shards: S, Seed: 71, Obs: reg})
		checkOpMetrics(t, s, reg, ball)
	})
	t.Run("obs+retries", func(t *testing.T) {
		reg := obs.NewRegistry()
		inj := fault.New(S, 3, fault.Spec{Shards: []int{0}, Ops: []fault.Op{fault.OpSegment}, ErrRate: 0.3})
		s := buildLineCfg(t, n, ball-1, Config{
			Shards: S, Seed: 71, Obs: reg, Injector: inj,
			Resilience: Resilience{Retries: 8, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond},
		})
		segs := checkOpMetrics(t, s, reg, ball)
		l := obs.Labels("shard", "0", "op", "segment")
		retries := reg.Counter("fairnn_shard_op_retries_total", l, "").Value()
		if retries == 0 || inj.Calls(0, fault.OpSegment) != uint64(segs[0])+retries {
			t.Fatalf("shard 0 segment: %d injector calls, %d whole calls + %d retries", inj.Calls(0, fault.OpSegment), segs[0], retries)
		}
	})
}

// TestRemoteOpMetrics is TestShardOpMetrics over a loopback fleet: a
// network-connected sampler's seam metrics count the same calls.
func TestRemoteOpMetrics(t *testing.T) {
	const S, n, ball = 3, 192, 16
	addrs, _ := startLineFleet(t, n, ball-1, S, RoundRobin{}, 72)
	reg := obs.NewRegistry()
	s, err := Connect[int](wire.IntCodec{}, addrs, RemoteConfig{Obs: reg, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkOpMetrics(t, s, reg, ball)
}
