package rank

import (
	"testing"
	"testing/quick"

	"fairnn/internal/rng"
)

func TestAssignmentBijection(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		return NewAssignment(n, rng.New(seed)).Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityAssignment(t *testing.T) {
	a := IdentityAssignment(10)
	if !a.Valid() {
		t.Fatal("identity not valid")
	}
	for i := int32(0); i < 10; i++ {
		if a.Of(i) != i || a.IDAt(i) != i {
			t.Fatalf("identity broken at %d", i)
		}
	}
}

func TestSwapPreservesBijection(t *testing.T) {
	f := func(seed uint64, swaps []uint16) bool {
		const n = 64
		a := NewAssignment(n, rng.New(seed))
		for _, s := range swaps {
			id1 := int32(s % n)
			id2 := int32((s / n) % n)
			r1, r2 := a.Of(id1), a.Of(id2)
			a.Swap(id1, id2)
			if a.Of(id1) != r2 || a.Of(id2) != r1 {
				return false
			}
		}
		return a.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapSelf(t *testing.T) {
	a := NewAssignment(5, rng.New(1))
	r := a.Of(2)
	a.Swap(2, 2)
	if a.Of(2) != r || !a.Valid() {
		t.Fatal("self-swap broke assignment")
	}
}

func TestBucketSortedAndRangeReport(t *testing.T) {
	f := func(seed uint64, rawIDs []uint8, loRaw, hiRaw uint8) bool {
		const n = 200
		a := NewAssignment(n, rng.New(seed))
		// Build a bucket from distinct ids.
		seen := map[int32]bool{}
		var ids []int32
		for _, v := range rawIDs {
			id := int32(v) % n
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		b := NewBucket(ids, a)
		if !b.Sorted(a) {
			return false
		}
		lo := int32(loRaw) % n
		hi := int32(hiRaw) % n
		if lo > hi {
			lo, hi = hi, lo
		}
		got := b.RangeReport(lo, hi, nil)
		// Reference: filter the bucket's ids naively.
		var want []int32
		for id := range seen {
			if a.Of(id) >= lo && a.Of(id) < hi {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			return false
		}
		if b.CountRange(lo, hi) != len(want) {
			return false
		}
		// got must be sorted by rank and contain exactly want's members.
		wantSet := map[int32]bool{}
		for _, id := range want {
			wantSet[id] = true
		}
		prev := int32(-1)
		for _, id := range got {
			if !wantSet[id] {
				return false
			}
			if a.Of(id) <= prev {
				return false
			}
			prev = a.Of(id)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRemoveInsert(t *testing.T) {
	const n = 50
	a := NewAssignment(n, rng.New(3))
	ids := []int32{1, 5, 9, 13, 21, 34}
	b := NewBucket(append([]int32(nil), ids...), a)
	if !b.Remove(a, 9) {
		t.Fatal("Remove existing returned false")
	}
	if b.Remove(a, 9) {
		t.Fatal("Remove missing returned true")
	}
	if b.Contains(a, 9) {
		t.Fatal("still contains removed id")
	}
	b.Insert(a, 9)
	if !b.Contains(a, 9) || !b.Sorted(a) {
		t.Fatal("Insert broke bucket")
	}
	if b.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(ids))
	}
}

func TestBucketSwapWorkflow(t *testing.T) {
	// Simulate the Appendix A update: remove both, swap ranks, reinsert.
	const n = 40
	a := NewAssignment(n, rng.New(4))
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	b := NewBucket(append([]int32(nil), all...), a)
	src := rng.New(5)
	for i := 0; i < 200; i++ {
		x := int32(src.Intn(n))
		y := int32(src.Intn(n))
		b.Remove(a, x)
		if x != y {
			b.Remove(a, y)
		}
		a.Swap(x, y)
		b.Insert(a, x)
		if x != y {
			b.Insert(a, y)
		}
		if !b.Sorted(a) {
			t.Fatalf("bucket unsorted after swap %d", i)
		}
		if b.Len() != n {
			t.Fatalf("bucket lost elements: %d", b.Len())
		}
	}
	if !a.Valid() {
		t.Fatal("assignment invalid after swaps")
	}
}

func TestBucketAtAndIDs(t *testing.T) {
	a := IdentityAssignment(10)
	b := NewBucket([]int32{7, 3, 5}, a)
	if b.At(0) != 3 || b.At(1) != 5 || b.At(2) != 7 {
		t.Fatalf("order wrong: %v", b.IDs())
	}
}

func TestRangeReportAppends(t *testing.T) {
	a := IdentityAssignment(10)
	b := NewBucket([]int32{1, 2, 3}, a)
	pre := []int32{99}
	out := b.RangeReport(0, 10, pre)
	if len(out) != 4 || out[0] != 99 {
		t.Fatalf("RangeReport did not append: %v", out)
	}
}
