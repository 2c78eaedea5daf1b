// Package rank implements the random-rank machinery shared by the Section 3
// and Section 4 data structures: a random permutation assigning each point a
// rank, and buckets kept sorted by rank that support (a) scanning in rank
// order, (b) reporting all ids with rank inside a segment [lo, hi) in
// O(log n + output) time (the per-bucket "index" of Section 4), and (c) the
// rank swaps of Appendix A.
package rank

import "slices"

import "fairnn/internal/rng"

// Assignment is a bijection between point ids [0, n) and ranks [0, n).
// Lower rank means "earlier in the random permutation Λ".
//
//fairnn:frozen
type Assignment struct {
	rank   []int32 // rank[id] = rank of point id
	byRank []int32 // byRank[rank] = id holding that rank
}

// NewAssignment draws a uniform random permutation of n points.
func NewAssignment(n int, r *rng.Source) *Assignment {
	byRank := r.Perm(n)
	rank := make([]int32, n)
	for pos, id := range byRank {
		rank[id] = int32(pos)
	}
	return &Assignment{rank: rank, byRank: byRank}
}

// IdentityAssignment returns the identity permutation; useful in tests to
// demonstrate the bias that the random permutation removes.
func IdentityAssignment(n int) *Assignment {
	rank := make([]int32, n)
	byRank := make([]int32, n)
	for i := 0; i < n; i++ {
		rank[i] = int32(i)
		byRank[i] = int32(i)
	}
	return &Assignment{rank: rank, byRank: byRank}
}

// N returns the number of points.
func (a *Assignment) N() int { return len(a.rank) }

// Of returns the rank of point id.
func (a *Assignment) Of(id int32) int32 { return a.rank[id] }

// IDAt returns the id holding the given rank.
func (a *Assignment) IDAt(rank int32) int32 { return a.byRank[rank] }

// Swap exchanges the ranks of two points (the Fisher–Yates-style
// perturbation of Appendix A). Swapping a point with itself is a no-op.
//
//fairnn:mutates Appendix A rank perturbation; callers serialize via the Dynamic write lock
func (a *Assignment) Swap(id1, id2 int32) {
	r1, r2 := a.rank[id1], a.rank[id2]
	a.rank[id1], a.rank[id2] = r2, r1
	a.byRank[r1], a.byRank[r2] = id2, id1
}

// Valid reports whether the assignment is a bijection (for property tests).
func (a *Assignment) Valid() bool {
	if len(a.rank) != len(a.byRank) {
		return false
	}
	for id, r := range a.rank {
		if r < 0 || int(r) >= len(a.byRank) || a.byRank[r] != int32(id) {
			return false
		}
	}
	return true
}

// Bucket is a list of point ids kept sorted by ascending rank under a fixed
// Assignment. It is the bucket representation of both Section 3 (scan in
// rank order, stop at first near point) and Section 4 (rank-range
// reporting). Ranks are stored inline next to the ids (struct-of-arrays),
// so range queries binary-search a local contiguous slice instead of
// chasing Assignment.Of per probe. Mutating operations that follow an
// Assignment.Swap must bracket the swap with Remove (before) and Insert
// (after) so the cached ranks stay consistent — exactly the discipline the
// Appendix A perturbation uses.
//
//fairnn:frozen
type Bucket struct {
	ids   []int32
	ranks []int32 // ranks[i] = rank of ids[i], strictly ascending
}

// NewBucket builds a bucket over ids, sorting them by rank. The id slice is
// taken over by the bucket.
func NewBucket(ids []int32, a *Assignment) *Bucket {
	ranks := make([]int32, len(ids))
	for i, id := range ids {
		ranks[i] = a.Of(id)
	}
	if len(ids) <= 32 {
		// LSH buckets are typically tiny; insertion sort on the pair of
		// arrays avoids any temporary.
		for i := 1; i < len(ids); i++ {
			r, id := ranks[i], ids[i]
			j := i - 1
			for ; j >= 0 && ranks[j] > r; j-- {
				ranks[j+1], ids[j+1] = ranks[j], ids[j]
			}
			ranks[j+1], ids[j+1] = r, id
		}
		return &Bucket{ids: ids, ranks: ranks}
	}
	// Pack (rank, id) pairs into single words so one flat sort orders both
	// arrays; ranks and ids are both non-negative int32s.
	packed := make([]uint64, len(ids))
	for i, id := range ids {
		packed[i] = uint64(uint32(ranks[i]))<<32 | uint64(uint32(id))
	}
	slices.Sort(packed)
	for i, pk := range packed {
		ranks[i] = int32(uint32(pk >> 32))
		ids[i] = int32(uint32(pk))
	}
	return &Bucket{ids: ids, ranks: ranks}
}

// Len returns the number of ids in the bucket.
//
//fairnn:noalloc
func (b *Bucket) Len() int { return len(b.ids) }

// IDs returns the ids in ascending rank order. The slice is owned by the
// bucket and must not be modified.
//
//fairnn:noalloc
func (b *Bucket) IDs() []int32 { return b.ids }

// Ranks returns the ranks aligned with IDs(). The slice is owned by the
// bucket and must not be modified.
//
//fairnn:noalloc
func (b *Bucket) Ranks() []int32 { return b.ranks }

// At returns the i-th id in rank order.
func (b *Bucket) At(i int) int32 { return b.ids[i] }

// searchRanks returns the first index whose rank is >= target. Manual
// binary search over the local rank slice: no closure, no Assignment
// indirection, no allocation.
//
//fairnn:noalloc
func searchRanks(ranks []int32, target int32) int {
	lo, hi := 0, len(ranks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ranks[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RangeReport appends to out every id whose rank lies in [loRank, hiRank),
// in ascending rank order, using binary search: O(log |bucket| + output).
//
//fairnn:noalloc
func (b *Bucket) RangeReport(loRank, hiRank int32, out []int32) []int32 {
	i := searchRanks(b.ranks, loRank)
	for ; i < len(b.ranks) && b.ranks[i] < hiRank; i++ {
		out = append(out, b.ids[i])
	}
	return out
}

// CountRange returns the number of ids with rank in [loRank, hiRank).
func (b *Bucket) CountRange(loRank, hiRank int32) int {
	return searchRanks(b.ranks, hiRank) - searchRanks(b.ranks, loRank)
}

// Remove deletes id from the bucket (identified by its current rank).
// It reports whether the id was present.
//
//fairnn:mutates deletion API; callers serialize via the Dynamic write lock
func (b *Bucket) Remove(a *Assignment, id int32) bool {
	i := searchRanks(b.ranks, a.Of(id))
	if i >= len(b.ids) || b.ids[i] != id {
		return false
	}
	b.ids = append(b.ids[:i], b.ids[i+1:]...)
	b.ranks = append(b.ranks[:i], b.ranks[i+1:]...)
	return true
}

// Insert adds id at the position given by its current rank.
func (b *Bucket) Insert(a *Assignment, id int32) {
	r := a.Of(id)
	i := searchRanks(b.ranks, r)
	b.ids = append(b.ids, 0)
	copy(b.ids[i+1:], b.ids[i:])
	b.ids[i] = id
	b.ranks = append(b.ranks, 0)
	copy(b.ranks[i+1:], b.ranks[i:])
	b.ranks[i] = r
}

// Contains reports whether id is present (by rank lookup).
func (b *Bucket) Contains(a *Assignment, id int32) bool {
	i := searchRanks(b.ranks, a.Of(id))
	return i < len(b.ids) && b.ids[i] == id
}

// Sorted reports whether the bucket is sorted by rank and its cached ranks
// agree with the assignment (invariant check for property tests).
func (b *Bucket) Sorted(a *Assignment) bool {
	for i := range b.ids {
		if b.ranks[i] != a.Of(b.ids[i]) {
			return false
		}
		if i > 0 && b.ranks[i-1] >= b.ranks[i] {
			return false
		}
	}
	return true
}
