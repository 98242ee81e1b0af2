package sampler

import (
	"math"

	"robustsample/internal/rng"
)

// ReservoirL is Vitter's Algorithm L, a skip-based reservoir sampler that
// produces a sample with exactly the same distribution as Algorithm R
// (Reservoir) but in O(k (1 + log(n/k))) expected random draws instead of
// one draw per element: after the reservoir fills, it computes how many
// elements to skip before the next admission by inverting the geometric-like
// skip distribution.
//
// Algorithm L matters for this repository in two ways. First, it is the
// practical high-throughput variant a downstream system would deploy, so
// the ablation experiment (E17) measures both its speed advantage and its
// identical robustness profile. Second, its admission pattern is decided
// *ahead of observing elements*: the skip counter is fixed before the next
// element arrives. Against an adaptive adversary this is exactly as safe as
// Algorithm R — admissions in both are independent of element values — and
// the ablation confirms the attack outcomes match.
type ReservoirL[T any] struct {
	// K is the reservoir capacity.
	K int

	items    []T
	rounds   int
	admitted int
	delta    sampleDelta[T]

	// w is the Algorithm L auxiliary variable: the running product of
	// u^(1/k) draws; skip counts are derived from it.
	w float64
	// skip is the number of upcoming elements to pass over before the
	// next admission (-1 until the reservoir fills).
	skip int64
}

// NewReservoirL returns an Algorithm L reservoir of capacity k. It panics
// unless k >= 1.
func NewReservoirL[T any](k int) *ReservoirL[T] {
	if k < 1 {
		panic("sampler: reservoir capacity must be >= 1")
	}
	return &ReservoirL[T]{K: k, items: make([]T, 0, k), w: 1, skip: -1}
}

// Offer processes the next stream element, returning whether it entered the
// reservoir.
func (v *ReservoirL[T]) Offer(x T, r *rng.RNG) bool {
	v.rounds++
	v.delta.clear()
	if len(v.items) < v.K {
		v.items = append(v.items, x)
		v.admitted++
		v.delta.add(x)
		if len(v.items) == v.K {
			v.advance(r)
		}
		return true
	}
	if v.skip > 0 {
		v.skip--
		return false
	}
	// skip == 0: admit this element into a uniform slot, then draw the
	// next skip.
	j := r.Intn(v.K)
	v.delta.remove(v.items[j])
	v.items[j] = x
	v.admitted++
	v.delta.add(x)
	v.advance(r)
	return true
}

// OfferBatch processes a run of consecutive stream elements in one call. It
// draws exactly the same randomness as per-element Offers (bit-identical
// samples, chunking invariant) but strides directly from admission to
// admission: the pending skip consumes a whole rejected stretch in one
// subtraction, so the steady-state cost is O(1) per admission plus O(1)
// per batch, not one branch per element.
//
//robust:hotpath
func (v *ReservoirL[T]) OfferBatch(xs []T, r *rng.RNG) int {
	v.delta.clear()
	n := len(xs)
	admitted, i := 0, 0
	// Fill phase: the first K elements are stored without randomness; the
	// first skip is drawn the moment the reservoir fills.
	for i < n && len(v.items) < v.K {
		v.items = append(v.items, xs[i])
		v.delta.add(xs[i])
		v.rounds++
		v.admitted++
		admitted++
		i++
		if len(v.items) == v.K {
			v.advance(r)
		}
	}
	// Steady state: skip is always >= 0 here (advance ran at fill time),
	// and each iteration lands exactly on the next admitted index.
	for i < n {
		if v.skip >= int64(n-i) {
			v.skip -= int64(n - i)
			v.rounds += n - i
			return admitted
		}
		i += int(v.skip)
		v.rounds += int(v.skip) + 1
		x := xs[i]
		i++
		j := r.Intn(v.K)
		v.delta.remove(v.items[j])
		v.items[j] = x
		v.admitted++
		v.delta.add(x)
		admitted++
		v.advance(r)
	}
	return admitted
}

// LastDelta reports the element admitted by the most recent Offer and the
// element it evicted, if any (or the cumulative delta of the most recent
// OfferBatch).
func (v *ReservoirL[T]) LastDelta() (added, removed []T) { return v.delta.view() }

// advance updates w and draws the next skip count per Algorithm L:
//
//	w <- w * exp(log(u1)/k)
//	skip <- floor( log(u2) / log(1-w) )
func (v *ReservoirL[T]) advance(r *rng.RNG) {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	v.w *= math.Exp(math.Log(u1) / float64(v.K))
	u2 := r.Float64()
	for u2 == 0 {
		u2 = r.Float64()
	}
	denom := math.Log1p(-v.w)
	if denom == 0 {
		// w rounded to 0: skips become astronomically large; saturate.
		v.skip = math.MaxInt64
		return
	}
	v.skip = int64(math.Floor(math.Log(u2) / denom))
	if v.skip < 0 {
		v.skip = 0
	}
}

// View returns the current sample without copying; callers must not mutate.
func (v *ReservoirL[T]) View() []T { return v.items }

// Sample returns a copy of the current sample.
func (v *ReservoirL[T]) Sample() []T { return append([]T(nil), v.items...) }

// Len returns the current sample size.
func (v *ReservoirL[T]) Len() int { return len(v.items) }

// Rounds returns the number of elements offered so far.
func (v *ReservoirL[T]) Rounds() int { return v.rounds }

// Reset clears the sampler for a fresh stream.
func (v *ReservoirL[T]) Reset() {
	v.items = v.items[:0]
	v.rounds = 0
	v.admitted = 0
	v.delta.clear()
	v.w = 1
	v.skip = -1
}
