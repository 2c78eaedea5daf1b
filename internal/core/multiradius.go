package core

import (
	"context"
	"errors"
	"iter"
	"sort"

	"fairnn/internal/lsh"
)

// MultiRadius addresses the parameterless direction raised in the paper's
// conclusion ("we would much rather prefer a parameterless version of our
// data structure"): instead of one fixed radius r, it maintains a
// geometric grid of Section 4 samplers and answers adaptive queries —
// "sample uniformly from the smallest non-empty ball around q" — without
// the user fixing r in advance.
//
// Space is a factor len(radii) above a single structure; the query tries
// radii from tightest to loosest and returns the first successful sample,
// which costs one failed probe per empty radius (each Õ(nρ)).
type MultiRadius[P any] struct {
	radii    []float64
	samplers []*Independent[P]
	kind     Kind
}

// NewMultiRadius builds one Independent sampler per radius. The radii are
// sorted internally from tightest to loosest (ascending for distances,
// descending for similarities).
func NewMultiRadius[P any](space Space[P], family lsh.Family[P], paramsFor func(radius float64) lsh.Params, points []P, radii []float64, opts IndependentOptions, seed uint64) (*MultiRadius[P], error) {
	if len(radii) == 0 {
		return nil, errors.New("core: no radii")
	}
	sorted := append([]float64(nil), radii...)
	sort.Float64s(sorted)
	if space.Kind == Similarity {
		// Tightest first means highest similarity first.
		for i, j := 0, len(sorted)-1; i < j; i, j = i+1, j-1 {
			sorted[i], sorted[j] = sorted[j], sorted[i]
		}
	}
	m := &MultiRadius[P]{radii: sorted, kind: space.Kind}
	for i, r := range sorted {
		params := paramsFor(r)
		s, err := NewIndependent(space, family, params, points, r, opts, seed+uint64(i)*1315423911)
		if err != nil {
			return nil, err
		}
		m.samplers = append(m.samplers, s)
	}
	return m, nil
}

// Radii returns the radius grid from tightest to loosest.
func (m *MultiRadius[P]) Radii() []float64 { return m.radii }

// At returns the sampler for the i-th radius (tightest first).
func (m *MultiRadius[P]) At(i int) *Independent[P] { return m.samplers[i] }

// N returns the number of indexed points.
func (m *MultiRadius[P]) N() int { return m.samplers[0].N() }

// Size returns the number of indexed points (the Sampler contract).
func (m *MultiRadius[P]) Size() int { return m.samplers[0].N() }

// RetainedScratchBytes sums the pooled per-query scratch across the
// per-radius samplers (each individually bounded by its Memo options).
func (m *MultiRadius[P]) RetainedScratchBytes() int {
	total := 0
	for _, s := range m.samplers {
		total += s.RetainedScratchBytes()
	}
	return total
}

// SampleTightest returns a uniform independent sample from the ball of
// the tightest radius that is non-empty around q, together with that
// radius. ok=false means even the loosest ball had no recalled point.
func (m *MultiRadius[P]) SampleTightest(q P, st *QueryStats) (id int32, radius float64, ok bool) {
	for i, s := range m.samplers {
		if cand, found := s.Sample(q, st); found {
			return cand, m.radii[i], true
		}
	}
	return 0, 0, false
}

// Sample is SampleTightest without the radius report (the Sampler
// contract): a uniform independent sample from the tightest non-empty
// ball around q.
func (m *MultiRadius[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	id, _, ok = m.SampleTightest(q, st)
	return id, ok
}

// SampleK returns k independent with-replacement samples, each drawn from
// the tightest non-empty ball around q (the grid is re-probed per draw,
// so each output is independent like repeated Sample calls).
func (m *MultiRadius[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return m.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero), for
// callers amortizing the output buffer.
func (m *MultiRadius[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	for i := 0; i < k; i++ {
		if id, ok := m.Sample(q, st); ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// SampleContext is Sample under a context: cancellation propagates into
// each per-radius rejection loop, so a grid probe under deadline pressure
// stops mid-ladder. A failed (but uncanceled) query returns ErrNoSample.
func (m *MultiRadius[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	for _, s := range m.samplers {
		id, err := s.SampleContext(ctx, q, st)
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, ErrNoSample) {
			return 0, err
		}
	}
	return 0, ErrNoSample
}

// Samples returns an unbounded stream of independent samples from the
// tightest non-empty ball around q; it ends when the consumer breaks,
// ctx is done, or a draw fails everywhere (ErrNoSample).
func (m *MultiRadius[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return streamOf(ctx, func(ctx context.Context) (int32, error) {
		return m.SampleContext(ctx, q, nil)
	})
}

// SampleAtLeast returns a sample from the tightest non-empty ball whose
// radius still admits at least minBall near points in the recalled
// candidate set; it falls back to looser radii until the requirement is
// met. This mirrors the "top-ℓ then sample" recommender pattern of
// Adomavicius and Kwon discussed in Section 1.2 without materializing the
// top-ℓ list.
func (m *MultiRadius[P]) SampleAtLeast(q P, minBall int, st *QueryStats) (id int32, radius float64, ok bool) {
	for i, s := range m.samplers {
		// Count distinct near candidates at this radius via the segment
		// machinery: draw one sample first (cheap existence probe).
		cand, found := s.Sample(q, st)
		if !found {
			continue
		}
		if minBall <= 1 {
			return cand, m.radii[i], true
		}
		// Count the recalled ball exactly. The sketch estimate ŝ_q
		// counts every colliding point, near or far, so it cannot stand
		// in for the ball size.
		if s.recalledBallSize(q, minBall) >= minBall {
			return cand, m.radii[i], true
		}
	}
	return 0, 0, false
}

// recalledBallSize counts distinct near candidates of q, stopping early
// once cap is reached.
func (d *Independent[P]) recalledBallSize(q P, cap int) int {
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	d.base.resolve(q, qr, nil)
	seen := make(map[int32]struct{})
	for _, bucket := range qr.buckets {
		if bucket == nil {
			continue
		}
		for _, id := range bucket.IDs() {
			if _, ok := seen[id]; ok {
				continue
			}
			if d.base.near(q, id, nil) {
				seen[id] = struct{}{}
				if len(seen) >= cap {
					return len(seen)
				}
			}
		}
	}
	return len(seen)
}
