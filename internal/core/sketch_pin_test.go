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

// TestEstimateCandidatesMatchesSketch checks the arm's estimate ŝ_q bit
// for bit against the sketch built without any shortcut: every stored
// sketch merged and every id of every other bucket added, repeats across
// tables included. The builds cover on-demand distinct counts t-1, t and
// t+1 (the edge of the exact-count shortcut), stored-only bucket sets and
// mixed ones, and the test fails if a case goes uncovered.
func TestEstimateCandidatesMatchesSketch(t *testing.T) {
	const capacity = 64 // t at the default SketchEpsilon
	type build struct {
		name    string
		family  lsh.Family[int]
		l, n    int
		minSize int
		seed    uint64
		queries []int
	}
	var builds []build
	for _, n := range []int{capacity - 1, capacity, capacity + 1} {
		builds = append(builds,
			build{fmt.Sprintf("on-demand/n=%d", n), allCollide{}, 3, n, 1 << 30, 5, []int{0}},
			build{fmt.Sprintf("stored/n=%d", n), allCollide{}, 3, n, 1, 5, []int{0}})
	}
	var line []int
	for q := 0; q < 1024; q += 5 {
		line = append(line, q)
	}
	line = append(line, 1<<40) // collides with no bucket
	for seed := uint64(1); seed <= 2; seed++ {
		builds = append(builds,
			build{fmt.Sprintf("mixed/seed=%d", seed), stripedLine{}, 8, 1024, 16, seed, line},
			build{fmt.Sprintf("striped-on-demand/seed=%d", seed), stripedLine{}, 8, 1024, 1 << 30, seed, line})
	}
	seen := map[string]bool{}
	for _, b := range builds {
		d, err := NewIndependent[int](intSpace(), b.family, lsh.Params{K: 1, L: b.l}, lineDataset(b.n), 3,
			IndependentOptions{SketchMinBucket: b.minSize}, b.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.skFamily.Capacity(); got != capacity {
			t.Fatalf("capacity %d, want %d", got, capacity)
		}
		for _, q := range b.queries {
			qr := d.base.getQuerier()
			d.base.resolve(q, qr, nil)
			ref := d.skFamily.NewSketch()
			stored, onDemand := 0, map[int32]bool{}
			for i, bucket := range qr.buckets {
				if bucket == nil {
					continue
				}
				if sk := d.sketches[i][qr.keys[i]]; sk != nil {
					if err := ref.Merge(sk); err != nil {
						t.Fatal(err)
					}
					stored++
					continue
				}
				for _, id := range bucket.IDs() {
					ref.Add(uint64(uint32(id)))
					onDemand[id] = true
				}
			}
			want := ref.Estimate()
			var st QueryStats
			got := d.estimateCandidates(qr, &st)
			d.base.putQuerier(qr)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(st.SketchEstimate) != math.Float64bits(want) {
				t.Fatalf("%s q=%d: estimate %v (recorded %v), want %v (%d stored, %d distinct on demand)",
					b.name, q, got, st.SketchEstimate, want, stored, len(onDemand))
			}
			switch {
			case stored == 0:
				seen[fmt.Sprintf("on-demand d=%d", len(onDemand))] = true
			case len(onDemand) == 0:
				seen["stored-only"] = true
			default:
				seen["mixed"] = true
			}
		}
	}
	for _, c := range []string{"on-demand d=0", "on-demand d=63", "on-demand d=64", "on-demand d=65", "stored-only", "mixed"} {
		if !seen[c] {
			t.Errorf("no query covered %s", c)
		}
	}
}
