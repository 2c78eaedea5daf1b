package rank

import (
	"fmt"
	"testing"

	"fairnn/internal/rng"
)

// Bucket benchmarks for the operations the core data structures perform:
// the Remove/Insert pair that brackets an Appendix A rank swap, and the
// Section 4 segment report.

func benchIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func BenchmarkBucket(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		a := NewAssignment(size, rng.New(1))
		src := rng.New(2)
		b.Run(fmt.Sprintf("update/n=%d", size), func(b *testing.B) {
			bk := NewBucket(benchIDs(size), a)
			for i := 0; i < b.N; i++ {
				id := int32(src.Intn(size))
				bk.Remove(a, id)
				bk.Insert(a, id)
			}
		})
		b.Run(fmt.Sprintf("range/n=%d", size), func(b *testing.B) {
			bk := NewBucket(benchIDs(size), a)
			out := make([]int32, 0, 64)
			for i := 0; i < b.N; i++ {
				lo := int32(src.Intn(size))
				out = bk.RangeReport(lo, lo+int32(size/16)+1, out[:0])
			}
		})
	}
}
