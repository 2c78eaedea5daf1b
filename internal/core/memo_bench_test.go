package core

// White-box microbenchmark for the Section 4 segment report — the inner
// operation of every rejection round — comparing the legacy per-bucket
// range-report path against the merged candidate cursor. bench/'s
// shard-line reports the segment report as core.segment_us;
// BENCH_PR2.json, pre-harness history, records the two paths side by
// side.

import (
	"testing"

	"fairnn/internal/lsh"
)

func benchIndependent(b *testing.B) *Independent[int] {
	b.Helper()
	const n = 4096
	d, err := NewIndependent[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 8}, lineDataset(n), 64, IndependentOptions{}, 131)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkSegmentNear(b *testing.B) {
	for _, mode := range []string{"direct", "merged"} {
		b.Run(mode, func(b *testing.B) {
			d := benchIndependent(b)
			qr := d.base.getQuerier()
			defer d.base.putQuerier(qr)
			d.base.resolve(0, qr, nil)
			if mode == "merged" {
				d.base.materializeMerged(qr, nil)
			}
			n := int32(d.N())
			const k = 64 // segment width n/k, the regime after estimation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "direct" {
					// Pin the legacy path: the adaptive meter would
					// otherwise merge after a few rounds.
					qr.rangeWork = 0
				}
				h := int32(i % k)
				d.segmentNear(0, qr, h*n/k, (h+1)*n/k, nil)
			}
		})
	}
}
