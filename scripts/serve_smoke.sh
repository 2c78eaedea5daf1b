#!/usr/bin/env bash
# serve_smoke.sh — CI gate for the network serving subsystem (PR 9;
# operator endpoint added in PR 10).
#
# Four stages, each a hard failure:
#   1. the fairnn-server binary builds standalone;
#   2. the wire protocol suite passes under the race detector (framing
#      fuzz corpora, typed rejection, loopback server semantics,
#      pipelined stress);
#   3. the remote-backend and cross-process suites pass — the latter
#      re-execs the test binary as real server processes, so SIGKILL
#      degradation, SIGTERM drain and readmission run against true
#      process boundaries;
#   4. a real server started with -obs serves well-formed Prometheus
#      text exposition on /metrics (fairnn_ families with HELP/TYPE
#      headers) and answers a 1-second CPU profile on
#      /debug/pprof/profile.
#
# Serving latency under load is measured by the repository benchmark
# (bench/, serve-line and serve-line-2c), and kill/restart cycles under
# concurrent callers by `go run ./cmd/fairnn -exp chaos`.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BINDIR="$(mktemp -d)"
OBSLOG="$(mktemp)"
METRICS="$(mktemp)"
SRVPID=""
trap '[ -n "$SRVPID" ] && kill "$SRVPID" 2>/dev/null; rm -rf "$BINDIR" "$OBSLOG" "$METRICS"' EXIT

echo "== build fairnn-server =="
go build -o "$BINDIR/fairnn-server" ./cmd/fairnn-server
"$BINDIR/fairnn-server" -h 2>&1 | head -1 || true

echo "== wire protocol suite (race) =="
go test -race -count=1 ./internal/wire

echo "== remote backend + cross-process suites (race, short) =="
go test -race -short -count=1 -run 'TestRemote' -v ./internal/shard
go test -race -short -count=1 -v ./cmd/fairnn-server

echo "== operator endpoint (/metrics + /debug/pprof) =="
"$BINDIR/fairnn-server" -addr 127.0.0.1:0 -obs 127.0.0.1:0 -n 2000 -shards 1 -shard 0 > "$OBSLOG" &
SRVPID=$!
OBSADDR=""
for _ in $(seq 1 100); do
	OBSADDR="$(awk '/^OBS /{print $2; exit}' "$OBSLOG")"
	[ -n "$OBSADDR" ] && break
	sleep 0.1
done
if [ -z "$OBSADDR" ]; then
	echo "serve_smoke: server never announced its OBS address" >&2
	exit 1
fi
curl -fsS "http://$OBSADDR/metrics" > "$METRICS"
# The exposition must be well-formed Prometheus text format: fairnn_
# families announced with HELP/TYPE headers, every non-comment line a
# `name{labels} value` sample, and the server's request histogram
# present with its _bucket/_count series.
awk '
/^# HELP fairnn_/ { help++ }
/^# TYPE fairnn_/ { type++ }
/^#/ { next }
/^$/ { next }
{
    samples++
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+Inf-]+$/) {
        printf "serve_smoke: malformed exposition line: %s\n", $0 > "/dev/stderr"
        bad = 1
    }
}
/^fairnn_server_request_seconds_bucket\{/ { bucket++ }
/^fairnn_server_request_seconds_count/ { count++ }
END {
    if (bad) exit 1
    if (help == 0 || type == 0 || samples == 0) {
        print "serve_smoke: /metrics exposition missing fairnn_ HELP/TYPE headers or samples" > "/dev/stderr"
        exit 1
    }
    if (bucket == 0 || count == 0) {
        print "serve_smoke: /metrics exposition missing the request-latency histogram series" > "/dev/stderr"
        exit 1
    }
    printf "metrics OK: %d samples across %d families\n", samples, type
}
' "$METRICS"
curl -fsS -o /dev/null "http://$OBSADDR/debug/pprof/profile?seconds=1"
echo "pprof 1s CPU profile OK"
kill "$SRVPID"
wait "$SRVPID" || true
SRVPID=""
