package obs

import (
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryInvisible is the disabled-telemetry contract in one
// place: a nil registry hands out nil instruments, and every recorder
// and reader on those nil instruments is a safe no-op.
func TestNilRegistryInvisible(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "", "")
	g := r.Gauge("x", "", "")
	h := r.Histogram("x_seconds", "", "")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned live instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	c.AddInt(-1)
	g.Set(7)
	g.Inc()
	g.Dec()
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments reported nonzero state")
	}
	if r.EnableTracing(4, 8) != nil || r.Tracer() != nil {
		t.Fatal("nil registry produced a tracer")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var trc *Tracer
	if trc.ShouldSample(1) || trc.Start(1) != nil || trc.Sampled() != 0 || trc.Recent() != nil {
		t.Fatal("nil tracer is not inert")
	}
	trc.Publish(nil)
	var tr *Trace
	sp := tr.Begin("op", 0)
	if sp != nil {
		t.Fatal("nil trace opened a span")
	}
	sp.Done(nil)
	sp.Retry()
	sp.Note("x")
	if sp.Child("op", 0) != nil {
		t.Fatal("nil span produced a child")
	}
}

// TestRegistryGetOrCreate pins the registration semantics: same (name,
// labels) returns the identical instrument; different labels under one
// name are distinct; re-registering a name as a different kind panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", Labels("shard", "0"), "help")
	b := r.Counter("ops_total", Labels("shard", "0"), "")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if c := r.Counter("ops_total", Labels("shard", "1"), ""); c == a {
		t.Fatal("distinct labels shared one counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("aliased counter sees %d, want 2", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("ops_total", "", "")
}

// TestEnableTracingIdempotent: the first enable wins; later calls reuse
// the same tracer so layers can enable independently.
func TestEnableTracingIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Tracer() != nil {
		t.Fatal("fresh registry already has a tracer")
	}
	a := r.EnableTracing(4, 8)
	b := r.EnableTracing(9, 2)
	if a == nil || a != b || r.Tracer() != a {
		t.Fatalf("EnableTracing not idempotent: %p %p %p", a, b, r.Tracer())
	}
	if r.EnableTracing(0, 8) != nil {
		t.Fatal("everyN=0 returned a tracer")
	}
}

// TestHistogramQuantile checks the interpolated quantiles against a
// point mass and a two-bucket split: the answer must land inside the
// observed value's bucket, and the median of an even split must sit in
// the lower mass.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond) // 1000ns
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		// 1000ns lands in a √2-spaced bucket (707, 1000]; interpolation
		// may return anything within it, including the lower edge at q=0.
		if got < 707 || got > 1001 {
			t.Fatalf("q=%v: got %dns, want within the bucket containing 1000ns", q, got)
		}
	}
	if h.Count() != 100 || h.Sum() != 100_000 {
		t.Fatalf("count=%d sum=%d, want 100 / 100000", h.Count(), h.Sum())
	}

	split := NewHistogram()
	for i := 0; i < 500; i++ {
		split.Observe(time.Microsecond)
	}
	for i := 0; i < 500; i++ {
		split.Observe(time.Millisecond)
	}
	if p10 := split.Quantile(0.10); p10 > 1001 {
		t.Fatalf("p10 of a 1µs/1ms split is %dns, want ≈1µs", p10)
	}
	if p90 := split.Quantile(0.90); p90 < 500_000 {
		t.Fatalf("p90 of a 1µs/1ms split is %dns, want ≈1ms", p90)
	}

	// Out-of-range inputs clamp rather than misbehave.
	if split.Quantile(-1) != split.Quantile(0) || split.Quantile(2) != split.Quantile(1) {
		t.Fatal("quantile arguments did not clamp to [0, 1]")
	}
}

// TestHistogramOverflowSnapshot reads the Prometheus exposition's
// cumulative le buckets: an observation beyond the last bound lands in
// the +Inf overflow bucket, a negative one clamps into the first bucket,
// and no observation is lost.
func TestHistogramOverflowSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "", "")
	h.Observe(time.Microsecond)
	h.Observe(100 * time.Second) // past the ≈47s top bound
	h.Observe(-time.Second)      // clamps to 0, first bucket
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var les []string
	var cum []uint64
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, `t_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, val, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("malformed bucket line %q", line)
		}
		les = append(les, le)
		cum = append(cum, n)
	}
	if len(cum) != len(latencyBounds)+1 || les[len(les)-1] != "+Inf" {
		t.Fatalf("%d bucket lines ending at le=%q, want %d ending at +Inf:\n%s", len(cum), les[len(les)-1], len(latencyBounds)+1, out)
	}
	rises := 0
	for i, n := range cum {
		prev := uint64(0)
		if i > 0 {
			prev = cum[i-1]
		}
		if n < prev {
			t.Fatalf("bucket le=%s holds %d, below the previous %d: not cumulative", les[i], n, prev)
		}
		if n > prev {
			rises++
		}
		if i < len(cum)-1 {
			if b, err := strconv.ParseFloat(les[i], 64); err != nil || b <= 0 {
				t.Fatalf("finite bucket with non-positive bound le=%q", les[i])
			}
		}
	}
	last := len(cum) - 1
	if rises != 3 || cum[0] != 1 {
		t.Fatalf("%d non-empty buckets, first bucket %d; want 3, with the clamped negative alone in the first", rises, cum[0])
	}
	if cum[last-1] != 2 || cum[last] != 3 {
		t.Fatalf("last finite bucket %d, +Inf %d; want 2 and 3 (the overflow observation in +Inf only)", cum[last-1], cum[last])
	}
	if h.Count() != 3 || !strings.Contains(out, "t_seconds_count 3\n") {
		t.Fatalf("observations lost: Count()=%d, exposition:\n%s", h.Count(), out)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines —
// run under -race this is the lock-free recording proof — and checks
// no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost observations: count=%d, want %d", h.Count(), workers*per)
	}
}

// TestRecordPathZeroAlloc is the preallocation contract at the
// instrument level: recording into registered instruments allocates
// nothing.
func TestRecordPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", Labels("shard", "0"), "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h_seconds", "", "")
	trc := r.EnableTracing(1<<20, 4) // enabled but effectively never firing
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(time.Microsecond)
		if trc.ShouldSample(42) {
			t.Fatal("1-in-2^20 gate fired on a fixed non-zero-hash seed")
		}
	}); n != 0 {
		t.Fatalf("record path allocates %v/op, want 0", n)
	}
}

// TestWritePrometheus checks the text exposition: HELP/TYPE headers,
// label rendering, cumulative le-buckets ending at +Inf == _count, and
// seconds units on histogram bounds.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("fairnn_ops_total", Labels("op", "arm", "shard", "3"), "ops served").Add(7)
	r.Gauge("fairnn_active", "", "live things").Set(-2)
	h := r.Histogram("fairnn_lat_seconds", Labels("shard", "1"), "latency")
	h.Observe(time.Microsecond)
	h.Observe(time.Microsecond)
	h.Observe(100 * time.Second)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP fairnn_ops_total ops served",
		"# TYPE fairnn_ops_total counter",
		`fairnn_ops_total{op="arm",shard="3"} 7`,
		"# TYPE fairnn_active gauge",
		"fairnn_active -2",
		"# TYPE fairnn_lat_seconds histogram",
		`fairnn_lat_seconds_bucket{shard="1",le="+Inf"} 3`,
		`fairnn_lat_seconds_count{shard="1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket series must be cumulative: the two 1µs observations appear
	// in every bucket from 1µs up, so some finite bucket already reads 2.
	if !strings.Contains(out, `fairnn_lat_seconds_bucket{shard="1",le="1.`) {
		t.Errorf("no finite bucket bound around 1µs in seconds units:\n%s", out)
	}

	// The handler serves the same bytes with the Prometheus content type.
	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	if rec.Body.String() != out {
		t.Error("handler body differs from WritePrometheus output")
	}
}

// TestLabels: keys sort so logically equal sets share a registry slot,
// and an odd argument count is a programming error.
func TestLabels(t *testing.T) {
	if got := Labels("shard", "3", "op", "arm"); got != `op="arm",shard="3"` {
		t.Fatalf("Labels = %q", got)
	}
	if Labels("a", "1") != `a="1"` || Labels() != "" {
		t.Fatal("single/empty label rendering wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd key/value count did not panic")
		}
	}()
	Labels("dangling")
}

// TestTracerDeterministicSampling: the gate is a pure function of the
// seed, it fires ≈1-in-N over a seed sweep, and everyN=1 traces
// everything.
func TestTracerDeterministicSampling(t *testing.T) {
	trc := NewTracer(8, 4)
	const seeds = 8000
	hits := 0
	for s := uint64(0); s < seeds; s++ {
		first := trc.ShouldSample(s)
		if first != trc.ShouldSample(s) {
			t.Fatalf("seed %d: gate is not deterministic", s)
		}
		if first {
			hits++
		}
	}
	if hits < seeds/16 || hits > seeds/4 {
		t.Fatalf("1-in-8 gate fired %d/%d times", hits, seeds)
	}
	all := NewTracer(1, 2)
	for s := uint64(0); s < 64; s++ {
		if !all.ShouldSample(s) {
			t.Fatalf("everyN=1 skipped seed %d", s)
		}
	}
}

// TestTracerRing: the ring retains the last capacity traces oldest
// first, and Sampled counts every Start.
func TestTracerRing(t *testing.T) {
	trc := NewTracer(1, 3)
	for s := uint64(1); s <= 5; s++ {
		tr := trc.Start(s)
		sp := tr.Begin("arm", int(s))
		sp.Retry()
		sp.Note("probe")
		sp.Child("segment", int(s)).Done(nil)
		sp.Done(errors.New("boom"))
		trc.Publish(tr)
	}
	if trc.Sampled() != 5 {
		t.Fatalf("Sampled = %d, want 5", trc.Sampled())
	}
	recent := trc.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(recent))
	}
	for i, tr := range recent {
		if want := uint64(3 + i); tr.Seed != want {
			t.Fatalf("ring[%d].Seed = %d, want %d (oldest first)", i, tr.Seed, want)
		}
		if len(tr.Spans) != 1 {
			t.Fatalf("ring[%d] has %d root spans, want 1", i, len(tr.Spans))
		}
		sp := tr.Spans[0]
		if sp.Op != "arm" || sp.Attempts != 1 || sp.Err != "boom" ||
			len(sp.Notes) != 1 || len(sp.Children) != 1 || sp.Children[0].Op != "segment" {
			t.Fatalf("ring[%d] span mangled: %+v", i, sp)
		}
	}
}
