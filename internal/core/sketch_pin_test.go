package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
)

// stripedLine is an LSH family over lineDataset whose tables mix bucket
// sizes: each table draws a cut point and an offset, and cuts the line
// into buckets of 4 points below the cut and 64 points above it. With
// SketchMinBucket between the two sizes, a query near the cuts resolves
// some buckets with a stored sketch and others sketched on demand.
type stripedLine struct{}

func (stripedLine) New(r *rng.Source) lsh.Func[int] {
	cut, off := 256+r.Intn(512), r.Intn(64)
	return func(x int) uint64 {
		if x < cut {
			return uint64((x + off) / 4)
		}
		return 1<<32 | uint64((x+off)/64)
	}
}

// CollisionProb is never consulted: the test fixes K and L.
func (stripedLine) CollisionProb(float64) float64 { return 1 }

// TestSketchEstimatePinned pins the Section 4 candidate estimate ŝ_q
// bit for bit, with the final segment count k of each draw, over 400
// queries of a fixed build: queries below every table's cut merge only
// on-demand sketches and stay under the row capacity t (so ŝ_q is an
// exact count), queries above every cut merge only stored sketches and
// overflow t, and queries between the cuts mix the two. Any change to
// the sketch's hashing, row contents, merge or estimate shows up here.
func TestSketchEstimatePinned(t *testing.T) {
	const n = 1024
	d, err := NewIndependent[int](intSpace(), stripedLine{}, lsh.Params{K: 1, L: 8}, lineDataset(n), 3,
		IndependentOptions{SketchMinBucket: 16}, 401)
	if err != nil {
		t.Fatal(err)
	}
	if buckets, _ := d.StoredSketches(); buckets == 0 {
		t.Fatal("build stores no sketch")
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < 400; i++ {
		var st QueryStats
		d.Sample(i*(n/400)+i%3, &st)
		put(math.Float64bits(st.SketchEstimate))
		put(uint64(st.FinalK))
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "9b4849c25cf20c9e"; got != want {
		t.Errorf("sketch estimate digest %s, want %s", got, want)
	}
}
