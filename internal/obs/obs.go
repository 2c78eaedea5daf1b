// Package obs is the repository's telemetry subsystem: a lock-free
// metrics registry (atomic counters, gauges, and fixed-boundary
// log-spaced latency histograms), a sampled per-query tracer, and
// Prometheus text exposition — standard library only, like everything
// else in the module.
//
// The design contract mirrors the fault injector's: an absent registry
// is contractually invisible. Every instrument method tolerates a nil
// receiver as a no-op, and every registration helper returns nil when
// handed a nil registry, so instrumented hot paths read as
//
//	m.Rounds.Add(n)   // no-op when telemetry is off
//
// with no outer branching, no randomness, and no heap traffic. All
// instrument storage is preallocated at registration time; the
// steady-state record path is atomic loads/adds only and is
// //fairnn:noalloc-clean, so a fully enabled registry keeps the
// samplers' zero-allocation oracles green. Telemetry never draws from
// any random stream — the tracer's 1-in-N sampling decision is a pure
// hash of the query seed through a derived substream (rng.Mix64 under a
// dedicated salt), never the query's own sample stream — so enabling or
// disabling observability cannot perturb same-seed sample streams.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op recorder.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//fairnn:noalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//fairnn:noalloc
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// AddInt adds n when n > 0 (negative and zero deltas are dropped — a
// counter is monotone).
//
//fairnn:noalloc
func (c *Counter) AddInt(n int) {
	if c != nil && n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count (0 on nil).
//
//fairnn:noalloc
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; a
// nil *Gauge is a no-op recorder.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
//
//fairnn:noalloc
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
//
//fairnn:noalloc
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc adds one.
//
//fairnn:noalloc
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
//
//fairnn:noalloc
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
//
//fairnn:noalloc
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// latencyBounds are the shared fixed histogram boundaries: upper bucket
// bounds in nanoseconds, log-spaced at two buckets per doubling (factor
// √2) from 250ns to ≈ 47s — fine enough that an interpolated p999 is
// within ~20% of truth, coarse enough that one histogram is 56 words.
// Fixed boundaries mean every histogram is fully preallocated at
// registration and the record path is one binary search plus two atomic
// adds.
var latencyBounds = makeLatencyBounds()

func makeLatencyBounds() []int64 {
	const buckets = 55
	b := make([]int64, buckets)
	v := 250.0 // ns
	const sqrt2 = 1.41421356237309504880
	for i := range b {
		b[i] = int64(v)
		v *= sqrt2
	}
	return b
}

// Histogram is a fixed-boundary log-spaced latency histogram: counts
// per bucket plus a running sum, all atomic. The final implicit bucket
// is +Inf. The zero value is NOT ready — construct with NewHistogram or
// through a Registry — but a nil *Histogram is a no-op recorder.
type Histogram struct {
	bounds []int64 // ascending upper bounds, ns
	counts []atomic.Uint64
	sum    atomic.Int64 // total observed ns
	total  atomic.Uint64
}

// NewHistogram returns a standalone (unregistered) latency histogram
// over the shared log-spaced boundaries — for harnesses that want
// quantiles without a registry (the bench harness, the resilience
// gauge).
func NewHistogram() *Histogram {
	return &Histogram{bounds: latencyBounds, counts: make([]atomic.Uint64, len(latencyBounds)+1)}
}

// Observe records one duration. Safe for concurrent use; zero
// allocations; no-op on nil.
//
//fairnn:noalloc
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Binary search for the first bound >= ns; the overflow bucket is
	// len(bounds).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(ns)
	h.total.Add(1)
}

// Count returns the number of observations.
//
//fairnn:noalloc
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the summed observations in nanoseconds.
//
//fairnn:noalloc
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds,
// linearly interpolated inside the containing bucket. It returns 0 on
// an empty (or nil) histogram. Concurrent Observes make the answer a
// point-in-time approximation, which is all a latency summary needs.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total-1))
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if cum+n > rank {
			var lo int64
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			// Position of the target rank inside this bucket.
			frac := float64(rank-cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// kindOf tags a registered family for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one metric family: every labeled instrument sharing a name.
type family struct {
	name  string
	help  string
	kind  string
	order []string // label sets in registration order
	items map[string]any
}

// Registry is a process- or sampler-scoped collection of instruments.
// Registration (Counter/Gauge/Histogram) is get-or-create keyed on
// (name, labels) under a mutex and may allocate; it is a
// construction-time operation. The instruments it returns are lock-free
// and zero-alloc to record into. A nil *Registry is valid everywhere
// and returns nil instruments — the disabled-telemetry contract.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
	trc   *Tracer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// lookup finds or creates the (name, labels) slot of a family,
// returning the existing instrument when one is registered. A kind
// mismatch on an existing name panics: metric names are a compile-time
// vocabulary, and two layers disagreeing on one is a programming error
// better caught at construction than exposed as garbled exposition.
func (r *Registry) lookup(kind, name, labels, help string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, items: make(map[string]any)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as " + f.kind + " and " + kind)
	}
	if f.help == "" {
		f.help = help
	}
	it, ok := f.items[labels]
	if !ok {
		it = mk()
		f.items[labels] = it
		f.order = append(f.order, labels)
	}
	return it
}

// Counter registers (or fetches) the counter name{labels}. labels is a
// pre-rendered Prometheus label body (`shard="3",op="arm"`), possibly
// empty. Returns nil on a nil registry.
func (r *Registry) Counter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(kindCounter, name, labels, help, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or fetches) the gauge name{labels}. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(kindGauge, name, labels, help, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or fetches) the latency histogram name{labels}
// over the shared log-spaced boundaries. Returns nil on a nil registry.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(kindHistogram, name, labels, help, func() any { return NewHistogram() }).(*Histogram)
}

// EnableTracing attaches a sampled per-query tracer to the registry:
// roughly one query in everyN is traced, and the last capacity traces
// are retained in a ring. Returns the tracer (idempotent: a second call
// returns the existing one). No-op (nil) on a nil registry or
// everyN <= 0.
func (r *Registry) EnableTracing(everyN, capacity int) *Tracer {
	if r == nil || everyN <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.trc == nil {
		r.trc = NewTracer(everyN, capacity)
	}
	return r.trc
}

// Tracer returns the registry's tracer, or nil when tracing is off.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trc
}
