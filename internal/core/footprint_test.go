package core

// The pooled-scratch footprint gauge: it measures the bytes an index pins
// between queries after a wide concurrent burst, dense vs compact memo
// backend, and prints machine-parseable FOOTPRINT lines (BENCH_PR3.json,
// pre-harness history, records a run at n = 10⁶; bench/ reports only
// whole-process heap_mb). It doubles as a regression test for the
// compact backend's gate (compact ≤ 1/10 dense).
//
// Sizes are fixed so the regular test run stays light: 65536 indexed
// points, a burst of 64 queriers.

import (
	"fmt"
	"testing"

	"fairnn/internal/lsh"
)

// TestPooledScratchFootprintGauge builds the Section 4 structure at
// gauge scale with each memo backend, populates exactly `queriers`
// pooled queriers through real bulk queries (see burstScratch — the
// deterministic equivalent of a `queriers`-goroutine burst), and reports
// the retained footprint. The compact path must pin at most 1/10 of the
// dense path's scratch at any n this runs at.
func TestPooledScratchFootprintGauge(t *testing.T) {
	const n, queriers = 65536, 64
	measure := func(backend MemoBackend) int {
		opts := IndependentOptions{Memo: MemoOptions{Backend: backend, MaxRetainedQueriers: queriers}}
		d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, opts, 281)
		if err != nil {
			t.Fatal(err)
		}
		bytes, retained := burstScratch(d, queriers)
		if retained != queriers {
			t.Fatalf("%s: retained %d queriers, want %d", backendName(backend), retained, queriers)
		}
		fmt.Printf("FOOTPRINT backend=%s n=%d queriers=%d retained_bytes=%d per_querier_bytes=%d\n",
			backendName(backend), n, queriers, bytes, bytes/queriers)
		return bytes
	}
	denseBytes := measure(MemoDense)
	compactBytes := measure(MemoCompact)
	if compactBytes*10 > denseBytes {
		t.Fatalf("compact pinned %d B vs dense %d B after a %d-querier burst; acceptance gate wants <= 1/10",
			compactBytes, denseBytes, queriers)
	}
}

// BenchmarkNearCached isolates the memo lookup the dense-regression gate
// watches: repeated nearCached hits on one querier, dense fast path vs
// compact interface path. The first visit per id scores the distance;
// steady state is all cache hits.
func BenchmarkNearCached(b *testing.B) {
	for _, backend := range []MemoBackend{MemoDense, MemoCompact} {
		b.Run(backendName(backend), func(b *testing.B) {
			const n = 4096
			opts := IndependentOptions{Memo: MemoOptions{Backend: backend}}
			d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, opts, 283)
			if err != nil {
				b.Fatal(err)
			}
			qr := d.base.getQuerier()
			defer d.base.putQuerier(qr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.base.nearCached(0, qr, int32(i%256), nil)
			}
		})
	}
}
