package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/obs"
	"fairnn/internal/shard"
)

// target is the system under test as its caller sees it: one blocking
// call per sample. Callers are closed loops — each sends its next query
// only after the previous answer arrives.
type target[P any] interface {
	SampleContext(ctx context.Context, q P, st *core.QueryStats) (int32, error)
}

// system is one built instance of a workload's system under test.
type system[P any] struct {
	t target[P]
	// close releases the system, waits for everything it started, and
	// reports anything that failed in the background meanwhile.
	close func() error
	// probes times the system's layers through their public calls.
	probes func() ([]metric, error)
	// shards is the shard count of a sharded system (0 for a façade
	// sampler); remote marks a system whose shards are served over the
	// wire.
	shards int
	remote bool
}

// query is one generated query point.
type query[P any] struct {
	p   P
	key uint64 // identifies the query in the stream digest
	// ball is the support of the query's samples: the near points the
	// index recalls for it, ascending. The paper's guarantee is
	// uniformity over it; points the hash tables miss never appear.
	ball []int32
	// exact is the size of the query's whole r-ball.
	exact int
}

// load is a workload's closed-loop schedule: an untimed warm-up sent by
// one caller, then every caller's first pass. The warm-up queries carry
// no ball: their answers are not checked.
type load[P any] struct {
	warm    []query[P]
	callers [][]query[P]
	// near is the workload's own radius test; it rejects ids out of range.
	near func(q P, id int32) bool
	// bin maps the member id of rank r in q's ball to one of bins
	// uniformity histogram bins.
	bin  func(q *query[P], r int, id int32) int
	bins int
}

// minP is the uniformity check's significance floor.
const minP = 1e-4

// minRecall is the least mean share of its r-ball a query's recalled
// points may cover. The uniformity check is relative to the recalled
// points, so this is what catches an index that stops recalling much of
// the ball. The line fixture's four one-function tables recall 0.68 of a
// ball when their offsets coincide, and about 0.97 typically.
const minRecall = 0.5

// maxRate bounds the calls per second one caller makes on any workload
// here; it sizes the call logs up front so the timed loop never grows
// them (growth would show in runtime.allocs_per_query).
const maxRate = 20000

// callLog is one caller's record of a timed phase.
type callLog struct {
	lat []time.Duration
	ids []int32 // the answer, or -1 when the call failed
	// errs holds the failed calls by call index.
	errs []callErr
	// First-pass records: the sketch estimate ŝ per call, the calls whose
	// acceptance probability was clamped, and the counters at the end.
	est     []float64
	clamped int
	stats   core.QueryStats
	// panicked is a recovered panic of the caller's goroutine.
	panicked any
}

type callErr struct {
	i   int
	err error
}

// warmUp sends the untimed warm-up queries. Their answers are not
// checked: the warm-up only fills pools and caches, and the timed phase
// that follows checks every answer.
func warmUp[P any](t target[P], qs []query[P]) {
	var st core.QueryStats
	for _, q := range qs {
		_, _ = t.SampleContext(context.Background(), q.p, &st)
	}
}

// drive runs one timed phase: every caller sends its first pass, then
// keeps cycling it until extra has elapsed since the phase began.
func drive[P any](t target[P], l *load[P], extra time.Duration) *phase {
	logs := make([]callLog, len(l.callers))
	more := int(extra.Seconds() * maxRate)
	for c, qs := range l.callers {
		n := len(qs) + more
		logs[c] = callLog{
			lat: make([]time.Duration, 0, n),
			ids: make([]int32, 0, n),
			est: make([]float64, len(qs)),
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range l.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					logs[c].panicked = r
				}
			}()
			call(t, l.callers[c], start, extra, &logs[c])
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	p := l.settle(logs, wall)
	p.allocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = uint64(m1.NumGC - m0.NumGC)
	return p
}

// call is one caller's closed loop: the first pass, then more passes
// until extra has passed since start.
func call[P any](t target[P], qs []query[P], start time.Time, extra time.Duration, lg *callLog) {
	ctx := context.Background()
	var st core.QueryStats
	first := len(qs)
	for i := 0; i < first || time.Since(start) < extra; i++ {
		st.Clamped = false
		t0 := time.Now()
		id, err := t.SampleContext(ctx, qs[i%first].p, &st)
		lg.lat = append(lg.lat, time.Since(t0))
		if err != nil {
			id = -1
			lg.errs = append(lg.errs, callErr{i, err})
		}
		lg.ids = append(lg.ids, id)
		if i < first {
			lg.est[i] = st.SketchEstimate
			if st.Clamped {
				lg.clamped++
			}
			if i == first-1 {
				lg.stats = st
			}
		}
	}
}

// phase is the settled outcome of one timed phase.
type phase struct {
	calls, failed int
	wall          time.Duration
	latUS         []float64 // every call's latency in µs, ascending
	// First-pass records — the part of the phase fixed by the seed, so
	// they repeat exactly on single-caller workloads.
	firstCalls, found, clamped int
	stats                      core.QueryStats // counters summed over callers
	relErr                     []float64       // |ŝ−s|/s per call
	recall                     float64         // mean recalled share of the r-ball
	// digest hashes the first pass's (query, answer) stream, and prefix
	// its first twinCalls calls; single caller only, since concurrent
	// callers interleave nondeterministically.
	digest, prefix uint64
	// Runtime deltas over the phase.
	allocs, bytes, gcs uint64
	uniformity         string
	problems           []string
}

// maxProblems caps the failed-check messages kept per phase.
const maxProblems = 8

func (p *phase) problem(format string, args ...any) {
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// settle checks every answer of a phase and folds the call logs into its
// outcome: typed failures are counted, untyped errors and far answers are
// problems, and the near answers must be uniform over their balls.
func (l *load[P]) settle(logs []callLog, wall time.Duration) *phase {
	p := &phase{wall: wall}
	observed := make([]float64, l.bins)
	expected := make([]float64, l.bins)
	for c := range logs {
		lg, qs := &logs[c], l.callers[c]
		if lg.panicked != nil {
			p.problem("caller %d panicked: %v", c, lg.panicked)
		}
		for _, e := range lg.errs {
			if typedFailure(e.err) {
				p.failed++
			} else {
				p.problem("caller %d call %d: untyped error: %v", c, e.i, e.err)
			}
		}
		h := fnv.New64a()
		var buf [12]byte
		for i, id := range lg.ids {
			q := &qs[i%len(qs)]
			p.latUS = append(p.latUS, float64(lg.lat[i])/1e3)
			if i < len(qs) {
				p.firstCalls++
				p.relErr = append(p.relErr, math.Abs(lg.est[i]-float64(q.exact))/float64(q.exact))
				p.recall += float64(len(q.ball)) / float64(q.exact)
				binary.LittleEndian.PutUint64(buf[:8], q.key)
				binary.LittleEndian.PutUint32(buf[8:], uint32(id))
				h.Write(buf[:])
				if i+1 == min(twinCalls, len(qs)) && len(logs) == 1 {
					p.prefix = h.Sum64()
				}
				if id >= 0 {
					p.found++
				}
			}
			if id < 0 {
				continue
			}
			if !l.near(q.p, id) {
				p.problem("caller %d call %d: answer %d is outside the radius of query %d", c, i, id, q.key)
				continue
			}
			r, ok := slices.BinarySearch(q.ball, id)
			if !ok {
				p.problem("caller %d call %d: answer %d is near query %d but not among its recalled points", c, i, id, q.key)
				continue
			}
			observed[l.bin(q, r, id)]++
			for k, m := range q.ball {
				expected[l.bin(q, k, m)] += 1 / float64(len(q.ball))
			}
		}
		if len(logs) == 1 {
			p.digest = h.Sum64()
		}
		p.clamped += lg.clamped
		p.stats.Merge(lg.stats)
	}
	p.calls = len(p.latUS)
	p.recall /= float64(p.firstCalls)
	if p.recall < minRecall {
		p.problem("the index recalls %.3f of the queries' r-balls on average, below %.2f", p.recall, minRecall)
	}
	slices.Sort(p.latUS)
	stat, df, pv := chiSquare(observed, expected)
	p.uniformity = fmt.Sprintf("chi2=%.1f df=%d p=%.3g", stat, df, pv)
	if pv < minP {
		p.problem("answers are not uniform over the recalled near points: %s", p.uniformity)
	}
	return p
}

// typedFailure reports whether err is a failure the Sampler contract
// documents: no near point sampled, or a shard failure.
func typedFailure(err error) bool {
	var se *shard.ShardError
	return errors.Is(err, core.ErrNoSample) || errors.Is(err, shard.ErrDegraded) || errors.As(err, &se)
}

// mean returns the mean of values, 0 for none.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// metric is one reported measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's outcome.
type result struct {
	workload          string
	attempted, failed int
	problems          []string
	// notes are human-readable lines printed with the metrics: the
	// uniformity test, the stream digest, the latency budget.
	notes   [][2]string
	metrics []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(key, format string, args ...any) {
	r.notes = append(r.notes, [2]string{key, fmt.Sprintf(format, args...)})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// absorb adds a phase's calls, failures, and problems to the result.
func (r *result) absorb(p *phase) {
	r.attempted += p.calls
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

// spec is one workload: its schedule and how to build its system.
type spec[P any] struct {
	name string
	c    config
	load load[P]
	// build constructs the system under test with its telemetry
	// recording into reg; a nil reg leaves telemetry off.
	build func(reg *obs.Registry) (*system[P], error)
	// twin, when set, builds the in-process system whose stream the
	// system under test must reproduce bit for bit.
	twin func() (*system[P], error)
	// layer labels the sampler's draw-loop telemetry ("shard", "core" or
	// "filter").
	layer string
}

func (s *spec[P]) run() (*result, error) {
	res := &result{workload: s.name}
	var err error
	if s.c.trace {
		err = s.traced(res)
	} else {
		err = s.timed(res, time.Duration(s.c.seconds)*time.Second)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return res, nil
}

// timed measures the end-to-end metrics: set-up time and memory, then
// latency and throughput over the first pass and as many further passes
// as fit in extra.
func (s *spec[P]) timed(res *result, extra time.Duration) error {
	var sys *system[P]
	setups := make([]float64, 0, s.c.size.builds)
	for range s.c.size.builds {
		if sys != nil {
			if err := sys.close(); err != nil {
				res.problem("closing a set-up build: %v", err)
			}
			sys = nil // so that every build starts from the same live heap
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if sys, err = s.build(nil); err != nil {
			return fmt.Errorf("build: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	warmUp(sys.t, s.load.warm)
	p := drive(sys.t, &s.load, extra)
	if err := sys.close(); err != nil {
		res.problem("closing the system: %v", err)
	}
	res.absorb(p)
	res.add("setup_s", median(setups), "s")
	if v, ok := percentile(p.latUS, 0.50); ok {
		res.add("latency_p50_us", v, "us")
	}
	if v, ok := percentile(p.latUS, 0.99); ok {
		res.add("latency_p99_us", v, "us")
	}
	res.add("throughput_qps", float64(p.calls)/p.wall.Seconds(), "calls/s")
	res.add("heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
	countMetrics(res, s.layer, p)
	s.notePhase(res, p)
	return s.checkTwin(res, p)
}

// traced measures the per-layer metrics: an untraced first pass (the
// baseline of obs.trace_overhead and the runtime counters), then the same
// first pass on a system built with telemetry on, then the layer probes.
func (s *spec[P]) traced(res *result) error {
	sys, err := s.build(nil)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	warmUp(sys.t, s.load.warm)
	base := drive(sys.t, &s.load, 0)
	if err := sys.close(); err != nil {
		res.problem("closing the untraced system: %v", err)
	}
	res.absorb(base)

	reg := obs.NewRegistry()
	if sys, err = s.build(reg); err != nil {
		return fmt.Errorf("traced build: %w", err)
	}
	warmUp(sys.t, s.load.warm)
	before := read(reg, s.layer, sys.shards)
	p := drive(sys.t, &s.load, 0)
	d := read(reg, s.layer, sys.shards).sub(before)
	res.absorb(p)
	if len(s.load.callers) == 1 && p.digest != base.digest {
		res.problem("telemetry changed the sample stream: digest %016x traced, %016x untraced", p.digest, base.digest)
	}
	b := layerMetrics(res, sys, s.layer, d, base, p)
	if sys.remote {
		res.note("budget", "%s", b)
		if f := b.frac(); f > maxResidual {
			res.problem("latency budget leaves %.1f%% of the mean call unattributed (limit %.0f%%)", 100*f, 100*maxResidual)
		}
	}
	probes, err := sys.probes()
	if err == nil {
		var o metric
		o, err = observeProbe()
		probes = append(probes, o)
	}
	if err := sys.close(); err != nil {
		res.problem("closing the traced system: %v", err)
	}
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	res.metrics = append(res.metrics, probes...)
	s.notePhase(res, p)
	return s.checkTwin(res, p)
}

// notePhase records the phase's call count, error rate, uniformity test,
// and digest.
func (s *spec[P]) notePhase(res *result, p *phase) {
	res.note("calls", "%d", p.calls)
	res.note("error_rate", "%.4g fraction", float64(p.failed)/float64(p.calls))
	res.note("uniformity", "%s over %d bins", p.uniformity, s.load.bins)
	res.note("recall", "%.4f of the r-balls, mean over the first pass", p.recall)
	if len(s.load.callers) == 1 {
		res.note("digest", "%016x over %d first-pass calls", p.digest, p.firstCalls)
	}
}

// twinCalls is how many first-pass calls the twin replays: a stream that
// diverges does so from its first differing draw on.
const twinCalls = 500

// checkTwin replays the warm-up and the start of the first pass on the
// in-process twin, when there is one: the remote stream must match it bit
// for bit.
func (s *spec[P]) checkTwin(res *result, p *phase) error {
	if s.twin == nil {
		return nil
	}
	tw, err := s.twin()
	if err != nil {
		return fmt.Errorf("twin build: %w", err)
	}
	l := s.load
	l.callers = [][]query[P]{l.callers[0][:min(twinCalls, len(l.callers[0]))]}
	warmUp(tw.t, l.warm)
	want := drive(tw.t, &l, 0)
	if err := tw.close(); err != nil {
		res.problem("closing the twin: %v", err)
	}
	if want.digest != p.prefix {
		res.problem("stream differs from the in-process twin: digest %016x, twin %016x over %d calls", p.prefix, want.digest, want.firstCalls)
	}
	return nil
}
