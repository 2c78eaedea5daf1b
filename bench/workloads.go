package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"fairnn"
	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/lsh"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
	"fairnn/internal/servefix"
	"fairnn/internal/set"
	"fairnn/internal/shard"
	"fairnn/internal/vector"
	"fairnn/internal/wire"
)

// sizes fixes each workload's first pass — the calls every caller makes
// in every run, the same on every commit; a timed run then keeps cycling
// the pass until -seconds has elapsed — and how much it builds.
type sizes struct {
	lineN     int // points on the line
	warm      int // untimed warm-up calls
	lineCalls int // serve-line and shard-line
	pairCalls int // each of serve-line-2c's two callers
	setCalls  int // nnis-set
	vecCalls  int // filter-vec
	// builds is how many times a timed run builds its system; setup_s is
	// their median.
	builds int
	// vecs is how many planted-ball instances filter-vec spreads its
	// calls over. One Section 5 structure's query cost moves by a quarter
	// with its seed (how many candidate buckets its filters admit for the
	// query), so a single instance would make the spread across seeds
	// that of one structure; the mean over vecs instances moves by a
	// quarter over √vecs.
	vecs int
}

// fullSize is the benchmark. Every first pass has at least 1200 calls, so
// each p99 has at least 12 samples beyond it, and the façade workloads'
// passes take under 15 s even on a slowed host (8.6 ms per nnis-set call,
// 10.3 ms per filter-vec call), so that a run at BENCHMARK.json's
// --seconds measures about that long.
var fullSize = sizes{lineN: 1_000_000, warm: 200, lineCalls: 3000, pairCalls: 1800, setCalls: 1600, vecCalls: 1200, builds: 3, vecs: 16}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	size    sizes
}

// workload is one named workload, built from the seed when it runs.
type workload struct {
	name string
	run  func(c config) (*result, error)
}

// workloads lists every workload in run order.
func workloads() []workload {
	return []workload{
		{"serve-line", func(c config) (*result, error) {
			return runSpec(serveLine("serve-line", c, c.size.lineCalls))
		}},
		{"serve-line-2c", func(c config) (*result, error) {
			return runSpec(serveLine("serve-line-2c", c, c.size.pairCalls, c.size.pairCalls))
		}},
		{"shard-line", func(c config) (*result, error) { return runSpec(shardLine(c)) }},
		{"nnis-set", func(c config) (*result, error) { return runSpec(nnisSet(c)) }},
		{"filter-vec", func(c config) (*result, error) { return runSpec(filterVec(c)) }},
	}
}

// runSpec runs a workload whose inputs were generated without error.
func runSpec[P any](s *spec[P], err error) (*result, error) {
	if err != nil {
		return nil, err
	}
	return s.run()
}

// Salts separating the seed-derived input streams.
const (
	saltLine   = 0x11e5
	saltSets   = 0x5e75
	saltUsers  = 0x05e2
	saltVecs   = 0x7ec5
	saltSigner = 0x5167
)

// Workload constants.
const (
	lineShards = 2
	lineRadius = 40
	setRadius  = 0.2
	setUsers   = 64 // query users, each with ≥ 40 neighbors at the radius
	setBins    = 10
	vecAlpha   = 0.8
	vecBeta    = 0.5
	vecBlock   = 25 // consecutive calls per filter-vec instance
	// traceEvery samples one query in traceEvery into a traced sharded
	// sampler's span ring.
	traceEvery  = 64
	dialTimeout = 5 * time.Second
)

// planner is a Section 4 index. Arming a plan for q and asking for the
// one segment that spans the whole rank range (k = 1) lists every near
// point in q's buckets.
type planner[P any] interface {
	BeginShardPlan(p *core.ShardPlan[P], q P, st *core.QueryStats)
}

// recalledBy appends the near points d recalls for q, mapped by id, to
// dst.
func recalledBy[P any](dst []int32, d planner[P], q P, id func(int32) int32) []int32 {
	var p core.ShardPlan[P]
	d.BeginShardPlan(&p, q, nil)
	defer p.Close()
	for i := range p.SegmentNearAt(0, 1, nil) {
		dst = append(dst, id(p.PickAt(i)))
	}
	return dst
}

func lineSpec(c config) servefix.Spec {
	return servefix.Spec{Dataset: "line", N: c.size.lineN, Shards: lineShards, Seed: c.seed, Radius: lineRadius}
}

// makeLineLoad draws query points whose whole radius lies on the line, so
// every r-ball is the 2·40+1 integers around its query, and reads each
// query's recalled points off a reference build of the shards. The
// histogram bins are the answer's offset from the query.
//
//fairnn:rng-source query points derived from the benchmark seed
func makeLineLoad(c config, callers ...int) (load[int], error) {
	sp := lineSpec(c)
	ref := make([]*core.Independent[int], sp.Shards)
	for j := range ref {
		d, _, err := servefix.BuildLineShard(sp, j)
		if err != nil {
			return load[int]{}, err
		}
		ref[j] = d
	}
	r := rng.New(rng.Mix64(c.seed ^ saltLine))
	next := func() query[int] {
		q := lineRadius + r.Intn(sp.N-2*lineRadius)
		return query[int]{p: q, key: uint64(q), exact: 2*lineRadius + 1}
	}
	l := load[int]{
		near: func(q int, id int32) bool { return max(int(id)-q, q-int(id)) <= lineRadius },
		bin:  func(q *query[int], _ int, id int32) int { return int(id) - q.p + lineRadius },
		bins: 2*lineRadius + 1,
	}
	for range c.size.warm {
		l.warm = append(l.warm, next())
	}
	for _, calls := range callers {
		qs := make([]query[int], calls)
		for i := range qs {
			qs[i] = next()
		}
		core.ParallelRange(len(qs), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for _, d := range ref {
					// The line's points are their own global ids.
					qs[i].ball = recalledBy(qs[i].ball, d, qs[i].p, func(l int32) int32 { return int32(d.Point(l)) })
				}
				slices.Sort(qs[i].ball)
			}
		})
		l.callers = append(l.callers, qs)
	}
	return l, nil
}

// serveLine is the line fleet served over loopback sockets, one caller
// per entry of callers. A single caller's stream is checked against the
// in-process twin.
func serveLine(name string, c config, callers ...int) (*spec[int], error) {
	sp := lineSpec(c)
	l, err := makeLineLoad(c, callers...)
	s := &spec[int]{
		name:  name,
		c:     c,
		load:  l,
		layer: "shard",
		build: func(reg *obs.Registry) (*system[int], error) { return startFleet(sp, reg, l.callers[0]) },
	}
	if len(callers) == 1 {
		s.twin = func() (*system[int], error) { return buildInProc(sp, nil, l.callers[0]) }
	}
	return s, err
}

// shardLine is the in-process twin of serve-line: the same build, seed,
// and queries without the wire or the servers.
func shardLine(c config) (*spec[int], error) {
	sp := lineSpec(c)
	l, err := makeLineLoad(c, c.size.lineCalls)
	return &spec[int]{
		name:  "shard-line",
		c:     c,
		load:  l,
		layer: "shard",
		build: func(reg *obs.Registry) (*system[int], error) { return buildInProc(sp, reg, l.callers[0]) },
	}, err
}

// buildInProc builds the line index through shard.BuildConfig.
func buildInProc(sp servefix.Spec, reg *obs.Registry, qs []query[int]) (*system[int], error) {
	s, err := servefix.InProcLine(sp, shard.Config{Obs: reg, TraceEveryN: traceEvery})
	if err != nil {
		return nil, err
	}
	return &system[int]{
		t:      s,
		close:  s.Close,
		shards: sp.Shards,
		probes: func() ([]metric, error) {
			d, _, err := servefix.BuildLineShard(sp, 0)
			if err != nil {
				return nil, err
			}
			return lineShardProbes(d, qs), nil
		},
	}, nil
}

// fleet is a set of wire servers serving from this process.
type fleet struct {
	srvs []*wire.Server[int]
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error // the first failure of a serving goroutine
}

func (f *fleet) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// serve runs srv on ln until the fleet closes.
func (f *fleet) serve(srv *wire.Server[int], ln net.Listener) {
	f.srvs = append(f.srvs, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				f.fail(fmt.Errorf("server panicked: %v", r))
			}
		}()
		if err := srv.Serve(ln); err != nil {
			f.fail(fmt.Errorf("serve: %w", err))
		}
	}()
}

// close stops every server, waits for their goroutines, and returns the
// first serving failure.
func (f *fleet) close() error {
	for _, srv := range f.srvs {
		srv.Close()
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// startFleet serves each shard of sp from its own wire.Server on a
// loopback socket, as cmd/fairnn-server does, and connects a sampler to
// the fleet.
func startFleet(sp servefix.Spec, reg *obs.Registry, qs []query[int]) (*system[int], error) {
	f := &fleet{}
	addrs := make([]string, sp.Shards)
	var shard0 *core.Independent[int]
	for j := range sp.Shards {
		d, meta, err := servefix.BuildLineShard(sp, j)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		if j == 0 {
			shard0 = d
		}
		srv := wire.NewServer[int](d, wire.IntCodec{}, meta, nil)
		srv.Observe(reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		addrs[j] = ln.Addr().String()
		f.serve(srv, ln)
	}
	s, err := shard.Connect[int](wire.IntCodec{}, addrs, shard.RemoteConfig{
		Partitioner: sp.Partitioner(),
		DialTimeout: dialTimeout,
		Obs:         reg,
		TraceEveryN: traceEvery,
	})
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	return &system[int]{
		t:      s,
		close:  func() error { return errors.Join(s.Close(), f.close()) },
		shards: sp.Shards,
		remote: true,
		probes: func() ([]metric, error) {
			m, err := wireProbes(addrs[0])
			return append(m, lineShardProbes(shard0, qs)...), err
		},
	}, nil
}

// nnisSet is the Section 4 sampler over Last.FM-like user sets, queried
// by users with at least 40 neighbors at the radius. Its histogram bins
// are deciles of the answer's rank among the recalled points.
func nnisSet(c config) (*spec[set.Set], error) {
	cfg := dataset.LastFMLike()
	cfg.Seed = rng.Mix64(c.seed ^ saltSets)
	sets := dataset.Generate(cfg)
	users := dataset.InterestingQueries(sets, setRadius, 40, setUsers, rng.Mix64(c.seed^saltUsers))
	if len(users) == 0 {
		return nil, errors.New("nnis-set: no user has 40 neighbors at the radius")
	}
	newSet := func(reg *obs.Registry) (fairnn.Sampler[set.Set], error) {
		opts := []fairnn.Option{fairnn.Radius(setRadius), fairnn.WithSeed(c.seed)}
		if reg != nil {
			opts = append(opts, fairnn.Observe(reg))
		}
		return fairnn.NewSet(sets, opts...)
	}
	ref, err := newSet(nil)
	if err != nil {
		return nil, err
	}
	d, ok := ref.(planner[set.Set])
	if !ok {
		return nil, fmt.Errorf("nnis-set: sampler %T cannot arm query plans", ref)
	}
	table := make([]query[set.Set], len(users))
	qsets := make([]set.Set, len(users))
	for k, u := range users {
		exact := 0
		for v := range sets {
			if set.Jaccard(sets[u], sets[v]) >= setRadius {
				exact++
			}
		}
		ball := recalledBy(nil, d, sets[u], func(id int32) int32 { return id })
		slices.Sort(ball)
		table[k] = query[set.Set]{p: sets[u], key: uint64(u), ball: ball, exact: exact}
		qsets[k] = sets[u]
	}
	l := load[set.Set]{
		warm:    cycle(table, c.size.warm),
		callers: [][]query[set.Set]{cycle(table, c.size.setCalls)},
		near:    func(q set.Set, id int32) bool { return int(id) < len(sets) && set.Jaccard(q, sets[id]) >= setRadius },
		bin:     func(q *query[set.Set], r int, _ int32) int { return r * setBins / len(q.ball) },
		bins:    setBins,
	}
	return &spec[set.Set]{
		name:  "nnis-set",
		c:     c,
		load:  l,
		layer: "core",
		build: func(reg *obs.Registry) (*system[set.Set], error) {
			s, err := newSet(reg)
			if err != nil {
				return nil, err
			}
			return &system[set.Set]{
				t:     s,
				close: func() error { return nil },
				probes: func() ([]metric, error) {
					pp, ok := s.(interface{ Params() lsh.Params })
					if !ok {
						return nil, fmt.Errorf("sampler %T does not report its LSH parameters", s)
					}
					m, err := signProbe(pp.Params(), qsets, rng.Mix64(c.seed^saltSigner))
					return []metric{m}, err
				},
			}, nil
		},
	}, nil
}

// vecQuery is a query of one filter-vec instance.
type vecQuery struct {
	k int // the instance
	v vector.Vec
}

// vecFleet is filter-vec's system: one Section 5 sampler per instance.
type vecFleet []fairnn.Sampler[vector.Vec]

func (f vecFleet) SampleContext(ctx context.Context, q vecQuery, st *core.QueryStats) (int32, error) {
	return f[q.k].SampleContext(ctx, q.v, st)
}

// filterVec is the Section 5 filter structure over planted balls at
// d=128, one query per instance; the histogram bins each answer by its
// rank among its query's recalled near points. The instances take their
// calls in turn, in blocks of vecBlock, so a call finds its instance's
// ~8 MB of filters and buckets warm in cache, unlike the line index's
// random probes. The blocks are short so that each instance's calls
// spread over the run: a host stall then slows calls of every instance
// rather than one instance's block, which set the p99 when that instance
// was the slowest.
func filterVec(c config) (*spec[vecQuery], error) {
	ws := make([]dataset.PlantedBall, c.size.vecs)
	for k := range ws {
		ws[k] = dataset.NewPlantedBall(dataset.PlantedBallConfig{
			N: 1000, Dim: 128, Alpha: vecAlpha, Beta: vecBeta, BallSize: 64, MidSize: 256,
			Seed: rng.Mix64(c.seed ^ saltVecs ^ uint64(k)<<32),
		})
	}
	newFleet := func(reg *obs.Registry) (vecFleet, error) {
		f := make(vecFleet, len(ws))
		for k, w := range ws {
			opts := []fairnn.Option{fairnn.Radius(vecAlpha), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(vecBeta),
				fairnn.WithSeed(rng.Mix64(c.seed ^ uint64(k)))}
			if reg != nil {
				opts = append(opts, fairnn.Observe(reg))
			}
			var err error
			if f[k], err = fairnn.NewVec(w.Points, opts...); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	ref, err := newFleet(nil)
	if err != nil {
		return nil, err
	}
	table := make([]query[vecQuery], len(ws))
	for k, w := range ws {
		rb, ok := ref[k].(interface {
			RecalledBall(vector.Vec, *core.QueryStats) []int32
		})
		if !ok {
			return nil, fmt.Errorf("filter-vec: sampler %T does not report its recalled ball", ref[k])
		}
		exact := 0
		for _, p := range w.Points {
			if vector.Dot(w.Query, p) >= vecAlpha {
				exact++
			}
		}
		ball := slices.Sorted(slices.Values(rb.RecalledBall(w.Query, nil)))
		table[k] = query[vecQuery]{p: vecQuery{k, w.Query}, key: uint64(k), ball: ball, exact: exact}
	}
	const bins = 64
	l := load[vecQuery]{
		warm:    blocks(table, c.size.warm),
		callers: [][]query[vecQuery]{blocks(table, c.size.vecCalls)},
		near: func(q vecQuery, id int32) bool {
			pts := ws[q.k].Points
			return int(id) < len(pts) && vector.Dot(q.v, pts[id]) >= vecAlpha
		},
		bin:  func(q *query[vecQuery], r int, _ int32) int { return r * bins / len(q.ball) },
		bins: bins,
	}
	return &spec[vecQuery]{
		name:  "filter-vec",
		c:     c,
		load:  l,
		layer: "filter",
		build: func(reg *obs.Registry) (*system[vecQuery], error) {
			f, err := newFleet(reg)
			if err != nil {
				return nil, err
			}
			return &system[vecQuery]{
				t:      f,
				close:  func() error { return nil },
				probes: func() ([]metric, error) { return vectorProbes(ws[0].Query, ws[0].Points) },
			}, nil
		},
	}, nil
}

// cycle repeats table's queries, in order, to n calls.
func cycle[P any](table []query[P], n int) []query[P] {
	out := make([]query[P], n)
	for i := range out {
		out[i] = table[i%len(table)]
	}
	return out
}

// blocks repeats table's queries, in order, in runs of vecBlock calls
// each, to n calls.
func blocks[P any](table []query[P], n int) []query[P] {
	out := make([]query[P], n)
	for i := range out {
		out[i] = table[i/vecBlock%len(table)]
	}
	return out
}
