package core

// Tests for the per-query memory discipline: the compact memo table must
// return exactly what the predicate it caches computes, survive epoch
// recycling and growth, the bounded querier pool must cap burst memory,
// and the whole memo path must be race-clean.

import (
	"math"
	"sync"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/vector"
)

// TestCompactMemoTable unit-tests the open-addressing stamped table in
// word mode (the similarity-memo layout, with the packed key+stamp slot
// word and a parallel value array): lookups within an epoch, invisibility
// across epochs, overwrite semantics, and geometric growth well past the
// seed capacity (forcing collision chains and reinsertion).
func TestCompactMemoTable(t *testing.T) {
	m := &compactMemo{wordVals: true}
	m.reset()
	if _, ok := m.get(7); ok {
		t.Fatal("empty table reported a hit")
	}
	m.put(7, 42)
	if v, ok := m.get(7); !ok || v != 42 {
		t.Fatalf("get(7) = (%d, %v), want (42, true)", v, ok)
	}
	m.put(7, 43)
	if v, _ := m.get(7); v != 43 {
		t.Fatalf("overwrite: get(7) = %d, want 43", v)
	}
	if m.live != 1 {
		t.Fatalf("live = %d after overwrite, want 1", m.live)
	}

	// Fill far beyond the seed capacity: every key must stay retrievable
	// through multiple growth/reinsertion cycles.
	const keys = 10 * compactMemoMinCap
	for i := int32(0); i < keys; i++ {
		m.put(i, uint64(i)*3)
	}
	for i := int32(0); i < keys; i++ {
		if v, ok := m.get(i); !ok || v != uint64(i)*3 {
			t.Fatalf("after growth get(%d) = (%d, %v), want (%d, true)", i, v, ok, uint64(i)*3)
		}
	}

	// A new epoch makes everything invisible without clearing...
	m.reset()
	for i := int32(0); i < keys; i++ {
		if _, ok := m.get(i); ok {
			t.Fatalf("stale entry %d visible after reset", i)
		}
	}
	// ...and the capacity is recycled for the next query.
	m.put(3, 9)
	if v, ok := m.get(3); !ok || v != 9 {
		t.Fatalf("post-reset put/get = (%d, %v), want (9, true)", v, ok)
	}

	// shrink obeys the budget in both directions.
	m.shrink(1 << 30)
	if m.slots == nil {
		t.Fatal("shrink freed a table within budget")
	}
	m.shrink(0)
	if m.slots != nil {
		t.Fatal("shrink kept a table past the budget")
	}
	m.reset()
	m.put(5, 1) // must reallocate lazily after shrink
	if v, ok := m.get(5); !ok || v != 1 {
		t.Fatalf("post-shrink put/get = (%d, %v), want (1, true)", v, ok)
	}
}

// TestCompactMemoBitMode covers the packed near-cache layout: the verdict
// bit rides inside the slot word (no value array at all), so the table is
// 8 B/slot while keeping the full get/put/overwrite/epoch semantics.
func TestCompactMemoBitMode(t *testing.T) {
	m := &compactMemo{}
	m.reset()
	for i := int32(0); i < 3*compactMemoMinCap; i++ {
		m.put(i, uint64(i)&1)
	}
	if m.vals != nil {
		t.Fatal("bit mode allocated a value array")
	}
	for i := int32(0); i < 3*compactMemoMinCap; i++ {
		if v, ok := m.get(i); !ok || v != uint64(i)&1 {
			t.Fatalf("get(%d) = (%d, %v), want (%d, true)", i, v, ok, uint64(i)&1)
		}
	}
	m.put(7, 0) // overwrite flips the packed bit
	if v, ok := m.get(7); !ok || v != 0 {
		t.Fatalf("overwrite get(7) = (%d, %v), want (0, true)", v, ok)
	}
	if got := m.retainedBytes(); got != compactMemoBitSlotBytes*len(m.slots) {
		t.Fatalf("retainedBytes = %d, want %d per slot", got, compactMemoBitSlotBytes)
	}
	m.reset()
	if _, ok := m.get(3); ok {
		t.Fatal("stale bit-mode entry visible after reset")
	}
	// Negative-looking ids (high bit set) must round-trip through the
	// 32-bit packed key.
	m.put(-2, 1)
	if v, ok := m.get(-2); !ok || v != 1 {
		t.Fatalf("get(-2) = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := m.get(2); ok {
		t.Fatal("id 2 aliased id -2 in the packed key")
	}
}

// TestCompactMemoEpochWrap pins the 31-bit packed stamp's wrap handling:
// when the epoch reaches the packing limit, reset must clear the table
// and restart at 1 so no pre-wrap entry can ever read as live again.
func TestCompactMemoEpochWrap(t *testing.T) {
	for _, wordVals := range []bool{false, true} {
		m := &compactMemo{wordVals: wordVals}
		m.epoch = compactMemoEpochMax - 2
		m.reset() // epoch = max-1, the last representable stamp
		m.put(11, 1)
		if v, ok := m.get(11); !ok || v != 1 {
			t.Fatalf("wordVals=%v: pre-wrap get = (%d, %v)", wordVals, v, ok)
		}
		m.reset() // would be max: must clear and restart at 1
		if m.epoch != 1 {
			t.Fatalf("wordVals=%v: post-wrap epoch = %d, want 1", wordVals, m.epoch)
		}
		if _, ok := m.get(11); ok {
			t.Fatalf("wordVals=%v: pre-wrap entry visible after wrap", wordVals)
		}
		m.put(13, 1)
		if v, ok := m.get(13); !ok || v != 1 {
			t.Fatalf("wordVals=%v: post-wrap put/get = (%d, %v)", wordVals, v, ok)
		}
	}
}

// TestCompactMemoAdversarialCollisions drives ids that all hash to nearby
// slots (multiples of the capacity stride collide under the mask) to
// exercise long linear-probe chains.
func TestCompactMemoAdversarialCollisions(t *testing.T) {
	m := &compactMemo{wordVals: true}
	m.reset()
	ids := make([]int32, 48)
	for i := range ids {
		ids[i] = int32(i * compactMemoMinCap)
		m.put(ids[i], uint64(i))
	}
	for i, id := range ids {
		if v, ok := m.get(id); !ok || v != uint64(i) {
			t.Fatalf("collision chain lost id %d: (%d, %v)", id, v, ok)
		}
	}
}

// TestCompactSimMemoExactBits pins that round-tripping similarities
// through Float64bits in the memo table is exact: simOf's memoized
// repeats and every value simBlock returns must equal vector.Dot bit for
// bit — over more ids than compactMemoMinCap, so the word table grows,
// and in a second epoch (the next getQuerier) under a different query,
// where any value left over from the first epoch would be wrong.
func TestCompactSimMemoExactBits(t *testing.T) {
	w := plantedWorkload(t, 200, 10, 30, 0.8, 0.5, 239)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 241)
	if err != nil {
		t.Fatal(err)
	}
	qr := fi.getQuerier()
	var st QueryStats
	for id := int32(0); id < 50; id++ {
		first := fi.simOf(qr, w.Query, id, &st)
		memoized := fi.simOf(qr, w.Query, id, &st)
		direct := vector.Dot(w.Query, fi.Point(id))
		if math.Float64bits(first) != math.Float64bits(direct) || math.Float64bits(memoized) != math.Float64bits(direct) {
			t.Fatalf("id %d: first %x memoized %x direct %x", id, math.Float64bits(first), math.Float64bits(memoized), math.Float64bits(direct))
		}
	}
	if st.ScoreCacheHits != 50 {
		t.Fatalf("ScoreCacheHits = %d, want 50", st.ScoreCacheHits)
	}
	if st.MemoProbes != 100 {
		t.Fatalf("MemoProbes = %d, want one per simOf call (100)", st.MemoProbes)
	}

	ids := make([]int32, fi.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	// blocks checks simBlock against vector.Dot over all ids, one
	// fiBatchBlock at a time, and reports the block calls' cache hits.
	blocks := func(epoch string, q vector.Vec) int {
		t.Helper()
		var bst QueryStats
		for lo := 0; lo < len(ids); lo += fiBatchBlock {
			block := ids[lo:min(lo+fiBatchBlock, len(ids))]
			for k, s := range fi.simBlock(qr, q, block, &bst) {
				if direct := vector.Dot(q, fi.Point(block[k])); math.Float64bits(s) != math.Float64bits(direct) {
					t.Fatalf("%s: simBlock id %d = %x, vector.Dot %x", epoch, block[k], math.Float64bits(s), math.Float64bits(direct))
				}
			}
		}
		return bst.ScoreCacheHits
	}
	if hits := blocks("first epoch", w.Query); hits != 50 {
		t.Fatalf("first simBlock pass hit %d ids, want the 50 simOf memoized", hits)
	}
	if len(qr.sim.slots) <= compactMemoMinCap {
		t.Fatalf("%d ids left the word table at %d slots; want growth past %d", len(ids), len(qr.sim.slots), compactMemoMinCap)
	}
	if hits := blocks("first epoch repeat", w.Query); hits != len(ids) {
		t.Fatalf("repeat simBlock pass hit %d ids, want all %d", hits, len(ids))
	}

	fi.putQuerier(qr)
	if next := fi.getQuerier(); next != qr {
		t.Fatal("the pool did not hand the same querier back")
	}
	defer fi.putQuerier(qr)
	if hits := blocks("second epoch", fi.Point(ids[len(ids)-1])); hits != 0 {
		t.Fatalf("second epoch's first pass hit %d ids, want 0", hits)
	}
}

// TestQuerierPoolBurstBounded is the burst-memory regression: after G
// concurrent queries on one structure, the pool must retain at most
// MaxRetainedQueriers queriers — not G — so the steady-state footprint is
// independent of the burst width.
func TestQuerierPoolBurstBounded(t *testing.T) {
	const retain = 3
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: retain}}
	d, err := NewIndependent[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 4}, lineDataset(256), 30, opts, 251)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
	)
	for g := 0; g < burst; g++ {
		start.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			start.Done()
			<-gate // maximize checkout overlap
			for i := 0; i < 20; i++ {
				d.Sample(i, nil)
			}
		}()
	}
	start.Wait()
	close(gate)
	done.Wait()
	if got := d.RetainedQueriers(); got > retain {
		t.Fatalf("pool retained %d queriers after a %d-goroutine burst, want <= %d", got, burst, retain)
	}
	// Each retained querier pins at most one near-cache table plus small
	// candidate buffers; the total must be far below what the burst
	// would have pinned unbounded.
	perQuerier := 8*d.N() + 4096
	if got := d.RetainedScratchBytes(); got > retain*perQuerier {
		t.Fatalf("retained scratch %d B, want <= %d B", got, retain*perQuerier)
	}
}

// TestPutQuerierTrimsOversizedScratch pins the ScratchBudget discipline:
// a querier whose memo grew past the budget must come back to the pool
// with the oversized backing arrays freed.
func TestPutQuerierTrimsOversizedScratch(t *testing.T) {
	opts := IndependentOptions{Memo: MemoOptions{
		MaxRetainedQueriers: 4,
		ScratchBudget:       compactMemoBitSlotBytes * compactMemoMinCap, // one seed near-cache table exactly
	}}
	d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 2}, lineDataset(4096), 4000, opts, 257)
	if err != nil {
		t.Fatal(err)
	}
	// allCollide + a huge radius + a bulk draw makes one checkout touch
	// thousands of distinct candidates, forcing the compact table well
	// past the seed capacity and the candidate buffers past the budget.
	if got := d.SampleK(0, 200, nil); len(got) == 0 {
		t.Fatal("bulk query failed")
	}
	if got := d.RetainedScratchBytes(); got > opts.Memo.ScratchBudget {
		t.Fatalf("retained scratch %d B after Put, want <= budget %d B", got, opts.Memo.ScratchBudget)
	}
	// The trimmed querier must still serve queries correctly.
	if _, ok := d.Sample(0, nil); !ok {
		t.Fatal("query failed after trim")
	}
}

// TestArmSketchBufferIsScratch pins the arm's sketch candidate buffer
// into the ScratchBudget discipline: an arm over more than t distinct
// on-demand ids leaves sketch.Distinct.AddIDs's buffer in the querier,
// counted at 8 B per value by scratchBytes, and trim under a small budget
// frees it.
func TestArmSketchBufferIsScratch(t *testing.T) {
	const n = 200
	d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 2}, lineDataset(n), 3,
		IndependentOptions{SketchMinBucket: 1 << 30}, 283)
	if err != nil {
		t.Fatal(err)
	}
	if capacity := d.skFamily.Capacity(); n <= capacity {
		t.Fatalf("%d distinct ids do not exceed t = %d", n, capacity)
	}
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	d.base.resolve(0, qr, nil)
	d.estimateCandidates(qr, nil)
	buf := qr.skBuf
	if cap(buf) == 0 {
		t.Fatalf("an arm over %d distinct ids left no sketch buffer", n)
	}
	with := qr.scratchBytes()
	qr.skBuf = nil
	if got := with - qr.scratchBytes(); got != 8*cap(buf) {
		t.Fatalf("scratchBytes counts %d B for the sketch buffer, want 8·cap = %d B", got, 8*cap(buf))
	}
	qr.skBuf = buf
	qr.trim(64)
	if qr.skBuf != nil {
		t.Fatalf("trim under a 64 B budget kept the %d-value sketch buffer", cap(qr.skBuf))
	}
}

// TestFilterTrimEnforcesSummedBudget pins the Section 5 side of the
// budget contract: the fiQuerier's total footprint — similarity memo,
// rejection working set, plan buffers, and filter scratch together —
// must come back under ScratchBudget after Put, and the trimmed querier
// must keep answering correctly.
func TestFilterTrimEnforcesSummedBudget(t *testing.T) {
	w := plantedWorkload(t, 400, 12, 60, 0.8, 0.5, 277)
	const budget = 2048
	opts := FilterIndependentOptions{Memo: MemoOptions{
		MaxRetainedQueriers: 4,
		ScratchBudget:       budget,
	}}
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, opts, 279)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.SampleK(w.Query, 100, nil); len(got) == 0 {
		t.Fatal("bulk query failed")
	}
	if got := fi.RetainedScratchBytes(); got > budget {
		t.Fatalf("retained scratch %d B after Put, want <= summed budget %d B", got, budget)
	}
	if _, ok := fi.Sample(w.Query, nil); !ok {
		t.Fatal("query failed after trim")
	}
}

// TestCompactPathConcurrentRace stress-tests the memo under -race:
// interleaved Sample/SampleKInto across goroutines on a shared structure
// whose pool retains only two queriers, with outputs checked against the
// ball.
func TestCompactPathConcurrentRace(t *testing.T) {
	const ballSize = 8
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: 2}}
	d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 3}, lineDataset(64), float64(ballSize-1), opts, 263)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]int32, 0, 16)
			for i := 0; i < 120; i++ {
				dst = d.SampleKInto(0, 8, dst, nil)
				for _, id := range dst {
					if d.Point(id) > ballSize-1 {
						t.Errorf("far point %d returned", d.Point(id))
						return
					}
				}
				if _, ok := d.Sample(0, nil); !ok {
					t.Error("interleaved Sample failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompactScratchSublinear is the CI smoke for the o(n) contract: on a
// bucketed dataset the retained scratch must stay a small fraction of an
// 8·n-byte per-point array per querier — at least 10× below it — and at
// most n bytes per querier. The burst is simulated deterministically (see
// burstScratch): each of the 8 pool slots is populated by a real query
// and held checked out so the later slots cannot reuse it, exactly the
// steady state after an 8-wide concurrent burst.
func TestCompactScratchSublinear(t *testing.T) {
	const n, queriers = 100_000, 8
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: queriers}}
	d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, opts, 269)
	if err != nil {
		t.Fatal(err)
	}
	bytes, retained := burstScratch(d, queriers)
	if retained != queriers {
		t.Fatalf("retained %d queriers, want %d", retained, queriers)
	}
	if perPoint := 8 * n * queriers; bytes*10 > perPoint {
		t.Fatalf("retained %d B vs %d B of 8·n per-point arrays; want <= 1/10", bytes, perPoint)
	}
	if perQuerier := bytes / queriers; perQuerier > n {
		t.Fatalf("per-querier scratch = %d B at n = %d; want o(n)", perQuerier, n)
	}
}

// burstScratch populates exactly `queriers` pooled queriers with real
// query work and reports (RetainedScratchBytes, RetainedQueriers). Each
// round runs one bulk query — which checks a querier out of the (empty)
// pool, does real memo work, and returns it — and then holds that querier
// checked out so the next round must allocate a fresh one; finally all
// held queriers go back. This reproduces, deterministically, the pool
// state after `queriers` concurrent checkouts.
func burstScratch[P any](d *Independent[P], queriers int) (bytes, retained int) {
	held := make([]*querier, 0, queriers)
	pts := d.base.points
	for i := 0; i < queriers; i++ {
		d.SampleK(pts[(i*37)%len(pts)], 8, nil)
		held = append(held, d.base.getQuerier())
	}
	for _, qr := range held {
		d.base.putQuerier(qr)
	}
	return d.RetainedScratchBytes(), d.base.pool.Retained()
}

// chunkFamily buckets the integer line into fixed-width chunks — a
// realistic bucket-size profile (each query touches O(L·width) distinct
// candidates, not O(n)) for the footprint tests.
type chunkFamily struct{ width int }

func (f chunkFamily) New(r *rng.Source) lsh.Func[int] {
	off := r.Intn(f.width)
	w := f.width
	return func(p int) uint64 { return uint64((p + off) / w) }
}

func (chunkFamily) CollisionProb(float64) float64 { return 0.9 }

// TestDenseMemoLazyForSampler pins the lazy memo allocation: the
// Section 3 sampler never consults the near-cache, so its pooled queriers
// must not pin a memo table at all.
func TestDenseMemoLazyForSampler(t *testing.T) {
	const n = 50_000
	s, err := NewSampler[int](intSpace(), chunkFamily{width: 32}, lsh.Params{K: 1, L: 3}, lineDataset(n), 10, 271)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Sample(i, nil)
		s.SampleK(i, 5, nil)
	}
	if got := s.RetainedScratchBytes(); got >= 8*n {
		t.Fatalf("Sampler retained %d B (>= 8n = %d); near-cache must stay unallocated", got, 8*n)
	}
	s.base.pool.Fold(func(qr *querier) {
		if got := qr.near.retainedBytes(); got != 0 {
			t.Errorf("a pooled Sampler querier pins a %d B near-cache; it must stay unallocated", got)
		}
	})
}
