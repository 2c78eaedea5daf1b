// Command fairnn-server builds one shard's Section 4 structure and
// serves the per-shard query operations (arm / segment / pick) over the
// fairnn wire protocol on TCP. A fleet of S processes started with
// identical -dataset/-n/-seed/-shards flags and -shard 0..S-1 is a
// complete serving-side build: each process derives its shard's
// structure from the shared spec exactly as the in-process sharded
// builder would (options resolved against the global point count,
// round-robin partition, shard.ShardSeed-derived seeds), so a client
// assembled with shard.Connect emits same-seed sample streams
// bit-identical to the in-process sampler over the same spec.
//
// The listen address (with the resolved ephemeral port) is printed to
// stdout as "LISTEN <addr>" once the server accepts connections.
// SIGTERM and SIGINT begin a graceful drain: new queries are refused
// with a typed draining error (clients treat the shard as down),
// in-flight plans finish, and the process exits when the last plan is
// released or the -drain budget expires.
//
// With -obs, a second HTTP listener serves the operator endpoint:
// /metrics exposes the server's telemetry registry (request latency by
// op, deadline sheds, drain refusals, active plans/conns) in Prometheus
// text format, and /debug/pprof/ the standard Go profiles. Its resolved
// address is printed as "OBS <addr>".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fairnn/internal/obs"
	"fairnn/internal/servefix"
	"fairnn/internal/wire"
)

func main() { os.Exit(run(os.Args[1:])) }

// run parses flags, builds the shard, and serves until drained. Split
// from main so the cross-process test suite can re-exec the test binary
// into a real server process.
func run(args []string) int {
	fs := flag.NewFlagSet("fairnn-server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "TCP listen address (port 0 picks an ephemeral port, reported on stdout)")
	ds := fs.String("dataset", "line", "dataset spec: line (integers under absolute distance) or vec (planted-ball unit vectors)")
	n := fs.Int("n", 4000, "global point count across the whole fleet")
	dim := fs.Int("dim", 32, "vector dimensionality (vec dataset)")
	seed := fs.Uint64("seed", 42, "global build seed shared by the fleet")
	radius := fs.Float64("radius", 40, "query radius (line) or similarity threshold α in (0.5, 0.98) (vec)")
	shards := fs.Int("shards", 1, "fleet size S")
	shardIdx := fs.Int("shard", 0, "this server's shard index in [0, S)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
	obsAddr := fs.String("obs", "", "operator HTTP listen address for /metrics and /debug/pprof (empty disables; port 0 picks an ephemeral port, reported on stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := servefix.Spec{Dataset: *ds, N: *n, Dim: *dim, Shards: *shards, Seed: *seed, Radius: *radius}
	if err := sp.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *shardIdx < 0 || *shardIdx >= *shards {
		fmt.Fprintf(os.Stderr, "fairnn-server: shard index %d outside [0, %d)\n", *shardIdx, *shards)
		return 2
	}
	switch sp.Dataset {
	case "vec":
		d, meta, err := servefix.BuildVecShard(sp, *shardIdx)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return serve(wire.NewServer(d, wire.VecCodec{Dim: sp.Dim}, meta, selfHealth(meta)), *addr, *obsAddr, *drain)
	default:
		d, meta, err := servefix.BuildLineShard(sp, *shardIdx)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return serve(wire.NewServer(d, wire.IntCodec{}, meta, selfHealth(meta)), *addr, *obsAddr, *drain)
	}
}

// selfHealth reports the single-process liveness record: a standalone
// shard server that can answer at all is healthy. (The interesting
// health state — which shards a *sampler* has written off and when they
// were re-admitted — lives client-side and is served by the sampler's
// own health endpoint; see the serve experiment.)
func selfHealth(meta wire.Meta) func() []wire.HealthRecord {
	return func() []wire.HealthRecord {
		return []wire.HealthRecord{{Shard: meta.ShardIndex, Healthy: true}}
	}
}

// serve listens, announces the resolved address, and blocks in the
// accept loop while a signal watcher triggers the graceful drain. With
// a non-empty obsAddr the operator HTTP endpoint (/metrics,
// /debug/pprof) is started first, so the registry observes every
// request the wire listener ever accepts.
func serve[P any](srv *wire.Server[P], addr, obsAddr string, drain time.Duration) int {
	if obsAddr != "" {
		oln, err := net.Listen("tcp", obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		reg := obs.NewRegistry()
		srv.Observe(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(reg))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Dies with the process; no drain needed for operator reads. A
		// panic on the operator listener must not take the shard down.
		go func() {
			defer func() { _ = recover() }()
			_ = http.Serve(oln, mux)
		}()
		fmt.Printf("OBS %s\n", oln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go drainOnSignal(srv, sigc, drain) // drainOnSignal recovers in its own body
	if err := srv.Serve(ln); err != nil && err != wire.ErrClosed {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// drainOnSignal waits for the first termination signal and drains the
// server within budget.
func drainOnSignal[P any](srv *wire.Server[P], sigc <-chan os.Signal, drain time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			// Containment: a drain failure must not take down a process
			// that is already exiting anyway.
			srv.Close()
		}
	}()
	<-sigc
	ctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, drain)
		defer cancel()
	}
	_ = srv.Shutdown(ctx)
}
