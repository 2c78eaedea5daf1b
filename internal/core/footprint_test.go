package core

// The pooled-scratch footprint gauge: it measures the bytes an index pins
// between queries after a wide concurrent burst and prints a
// machine-parseable FOOTPRINT line (BENCH_PR3.json, pre-harness history,
// records a run at n = 10⁶; bench/ reports only whole-process heap_mb).
// It doubles as a regression test for the memo's o(n) gate (at most 1/10
// of an 8·n-byte per-point array per querier).
//
// Sizes are fixed so the regular test run stays light: 65536 indexed
// points, a burst of 64 queriers.

import (
	"fmt"
	"testing"

	"fairnn/internal/lsh"
)

// TestPooledScratchFootprintGauge builds the Section 4 structure at
// gauge scale, populates exactly `queriers` pooled queriers through real
// bulk queries (see burstScratch — the deterministic equivalent of a
// `queriers`-goroutine burst), and reports the retained footprint. The
// pool must pin at most 1/10 of 8·n bytes per querier at any n this runs
// at.
func TestPooledScratchFootprintGauge(t *testing.T) {
	const n, queriers = 65536, 64
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: queriers}}
	d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, opts, 281)
	if err != nil {
		t.Fatal(err)
	}
	bytes, retained := burstScratch(d, queriers)
	if retained != queriers {
		t.Fatalf("retained %d queriers, want %d", retained, queriers)
	}
	fmt.Printf("FOOTPRINT n=%d queriers=%d retained_bytes=%d per_querier_bytes=%d\n",
		n, queriers, bytes, bytes/queriers)
	if perPoint := 8 * n * queriers; bytes*10 > perPoint {
		t.Fatalf("pinned %d B after a %d-querier burst vs %d B of 8·n per-point arrays; acceptance gate wants <= 1/10",
			bytes, queriers, perPoint)
	}
}

// BenchmarkNearCached isolates the memo lookup: repeated nearCached hits
// on one querier. The first visit per id scores the distance; steady
// state is all cache hits.
func BenchmarkNearCached(b *testing.B) {
	b.Run("compact", func(b *testing.B) {
		const n = 4096
		d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, IndependentOptions{}, 283)
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
