package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestServeChaos runs the network chaos schedule at test scale: each
// cycle's queries come from concurrent callers against a live loopback
// fleet, one server dies halfway through them with requests in flight,
// then it restarts and must be probed back in, and the final registry is
// read through the operator health endpoint.
func TestServeChaos(t *testing.T) {
	cfg := DefaultServeChaos()
	cfg.Cycles, cfg.N, cfg.QueriesPerPhase = 2, 400, 40
	res, err := RunServeChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cfg.Cycles {
		t.Fatalf("%d rows for %d cycles", len(res.Rows), cfg.Cycles)
	}
	for _, row := range res.Rows {
		if got := row.DownOK + row.DownDegraded + row.DownMiss + row.DownFailed; got != cfg.QueriesPerPhase {
			t.Errorf("cycle %d: outcomes sum to %d, want %d", row.Cycle, got, cfg.QueriesPerPhase)
		}
	}
	if res.Readmissions < cfg.Cycles {
		t.Errorf("%d readmissions after %d kills", res.Readmissions, cfg.Cycles)
	}
	if len(res.health) != cfg.Shards {
		t.Errorf("operator endpoint served %d health records for %d shards", len(res.health), cfg.Shards)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "health: shard "); got != cfg.Shards {
		t.Errorf("rendered %d health lines for %d shards:\n%s", got, cfg.Shards, buf.String())
	}
}

// TestServeChaosRefusesOneShard: killing the only shard leaves nothing to
// degrade onto, so the schedule is refused up front, with that reason,
// instead of failing its degradation check after a whole cycle.
func TestServeChaosRefusesOneShard(t *testing.T) {
	for _, shards := range []int{1, 0} {
		cfg := DefaultServeChaos()
		cfg.Shards = shards
		if _, err := RunServeChaos(cfg); err == nil || !strings.Contains(err.Error(), "no survivor") {
			t.Fatalf("Shards=%d: err = %v, want a refusal naming the missing survivor", shards, err)
		}
	}
}
