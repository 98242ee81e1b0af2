// Package sampler implements the streaming sampling algorithms analyzed by
// the paper — BernoulliSample and ReservoirSample (Vitter's Algorithm R,
// exactly as the pseudocode in Section 2) — plus the weighted-reservoir
// extension discussed in Section 1.3 (Efraimidis-Spirakis A-Res) and a
// with-replacement variant used in ablation benchmarks.
//
// Samplers are generic over the element type. The adversarial game fixes
// T = int64 (ordered universes), but the public library is usable with any
// payload. All randomness is drawn from an explicit *rng.RNG so that games
// and experiments are reproducible.
//
// The Offer method returns whether the element was admitted into the sample
// in this round; this is precisely the bit the paper's adaptive adversary
// conditions on (it observes the post-update state σ_i, from which admission
// is visible).
package sampler

import (
	"math"
	"math/bits"
	"slices"

	"robustsample/internal/rng"
)

// bulkDraws caps the samplers' bulk-RNG scratch buffers: batch ingest
// pre-draws up to this many uniforms per refill (see Reservoir.OfferBatch
// for the exact-drain argument that makes prefilling safe).
const bulkDraws = 512

// Bernoulli keeps each offered element independently with probability P.
// For a stream of length n the sample size concentrates around n*P
// (Chernoff; Theorem 3.1 of the paper).
type Bernoulli[T any] struct {
	// P is the per-element sampling probability in [0, 1].
	P float64

	items  []T
	rounds int
	delta  sampleDelta[T]

	// Batch-ingest gap-skipping state: the number of upcoming batch
	// elements to reject before the next admission, valid when hasSkip.
	// Carrying it across OfferBatch calls makes batch results invariant
	// to how the stream is chunked. invLogQ caches 1/ln(1-P).
	skip    int64
	hasSkip bool
	invLogQ float64
}

// NewBernoulli returns a Bernoulli sampler with rate p. It panics unless
// 0 <= p <= 1.
func NewBernoulli[T any](p float64) *Bernoulli[T] {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic("sampler: Bernoulli rate must be in [0, 1]")
	}
	return &Bernoulli[T]{P: p}
}

// Offer processes the next stream element, returning whether it was sampled.
func (b *Bernoulli[T]) Offer(x T, r *rng.RNG) bool {
	b.rounds++
	b.delta.clear()
	if r.Bernoulli(b.P) {
		b.items = append(b.items, x)
		b.delta.add(x)
		return true
	}
	return false
}

// OfferBatch processes a run of consecutive stream elements in one call,
// returning how many were admitted. Instead of one coin flip per element it
// draws the gaps between admissions directly from the geometric distribution
// (one logarithm per admitted element, against a precomputed 1/ln(1-P)), so
// a benign stream at rate p costs O(p*n) RNG work instead of O(n). The
// admission law is exactly i.i.d. Bernoulli(P) per element, and results do
// not depend on how the stream is sliced into batches — only on the order
// of elements offered — because the pending gap carries across calls.
//
// The batch path consumes randomness differently from per-element Offer, so
// for a fixed RNG the two select different (equally distributed) samples.
// LastDelta afterwards reports the batch's admissions.
//
//robust:hotpath
func (b *Bernoulli[T]) OfferBatch(xs []T, r *rng.RNG) int {
	b.delta.clear()
	if len(xs) == 0 {
		return 0
	}
	n := len(xs)
	b.rounds += n
	switch {
	case b.P <= 0:
		return 0
	case b.P >= 1:
		b.items = append(b.items, xs...)
		for _, x := range xs {
			b.delta.add(x)
		}
		return n
	}
	if b.invLogQ == 0 {
		b.invLogQ = 1 / math.Log1p(-b.P)
	}
	// Stride directly from admission to admission with the skip state in
	// locals: rejected stretches cost one subtraction, not one branch per
	// element. The geometric draws are deliberately NOT prefilled in bulk:
	// a skip can cover the whole remainder of the batch while consuming zero
	// further draws, so prefilled skips have no consumption lower bound and
	// would leave the generator ahead of the per-call sequence, breaking
	// chunking invariance. One logarithm per
	// admission is already the information-theoretic floor for this path.
	admitted, i := 0, 0
	skip, hasSkip, invLogQ := b.skip, b.hasSkip, b.invLogQ
	for {
		if !hasSkip {
			skip = r.GeometricInv(invLogQ)
			hasSkip = true
		}
		if skip >= int64(n-i) {
			skip -= int64(n - i)
			break
		}
		i += int(skip)
		x := xs[i]
		b.items = append(b.items, x)
		b.delta.add(x)
		admitted++
		i++
		hasSkip = false
	}
	b.skip, b.hasSkip = skip, hasSkip
	return admitted
}

// LastDelta reports how the sample multiset changed in the most recent
// Offer or OfferBatch; Bernoulli sampling never evicts, so removed is
// always empty.
func (b *Bernoulli[T]) LastDelta() (added, removed []T) { return b.delta.view() }

// View returns the current sample without copying. Callers must not mutate
// the returned slice; it is the sampler's internal state σ_i.
func (b *Bernoulli[T]) View() []T { return b.items }

// Sample returns a copy of the current sample.
func (b *Bernoulli[T]) Sample() []T { return append([]T(nil), b.items...) }

// Len returns the current sample size.
func (b *Bernoulli[T]) Len() int { return len(b.items) }

// Rounds returns the number of elements offered so far.
func (b *Bernoulli[T]) Rounds() int { return b.rounds }

// Reset clears the sampler for a fresh stream.
func (b *Bernoulli[T]) Reset() {
	b.items = b.items[:0]
	b.rounds = 0
	b.delta.clear()
	b.skip = 0
	b.hasSkip = false
}

// sampleDelta records the multiset change of one Offer without allocating:
// the buffers are reused round to round. It backs the samplers' LastDelta
// methods, which the continuous game consumes to keep its incremental
// discrepancy accumulator in sync with the sample (including evictions).
type sampleDelta[T any] struct {
	added   []T
	removed []T
}

func (d *sampleDelta[T]) clear() {
	d.added = d.added[:0]
	d.removed = d.removed[:0]
}

func (d *sampleDelta[T]) add(x T)    { d.added = append(d.added, x) }
func (d *sampleDelta[T]) remove(x T) { d.removed = append(d.removed, x) }

func (d *sampleDelta[T]) view() (added, removed []T) { return d.added, d.removed }

// Reservoir maintains a uniform without-replacement sample of fixed size K
// using Vitter's Algorithm R, exactly as the ReservoirSample pseudocode in
// Section 2 of the paper: the first K elements are stored with probability
// one; element i > K is stored with probability K/i, overwriting a uniformly
// random slot.
type Reservoir[T any] struct {
	// K is the reservoir capacity.
	K int

	items    []T
	rounds   int
	admitted int // k' in Section 5: total elements ever admitted
	delta    sampleDelta[T]

	// ubuf is OfferBatch's bulk-uniform scratch. It is pure scratch: it is
	// always logically empty between calls (see the exact-drain argument in
	// OfferBatch), so snapshots and merges ignore it.
	ubuf []uint64
}

// NewReservoir returns a reservoir sampler of capacity k. It panics unless
// k >= 1.
func NewReservoir[T any](k int) *Reservoir[T] {
	if k < 1 {
		panic("sampler: reservoir capacity must be >= 1")
	}
	return &Reservoir[T]{K: k, items: make([]T, 0, k)}
}

// Offer processes the next stream element, returning whether it entered the
// reservoir (possibly evicting an older element).
func (v *Reservoir[T]) Offer(x T, r *rng.RNG) bool {
	v.delta.clear()
	return v.offerOne(x, r)
}

// offerOne is the per-element admission step shared by Offer and
// OfferBatch, so the two paths cannot drift apart (the batch path's
// bit-identical-randomness guarantee depends on them staying the same).
func (v *Reservoir[T]) offerOne(x T, r *rng.RNG) bool {
	v.rounds++
	if len(v.items) < v.K {
		v.items = append(v.items, x)
		v.admitted++
		v.delta.add(x)
		return true
	}
	// Store with probability K/i by drawing j uniform in [0, i) and
	// admitting when j < K; j then doubles as the eviction slot, which
	// is uniform in [0, K) conditioned on admission.
	j := r.Intn(v.rounds)
	if j < v.K {
		v.delta.remove(v.items[j])
		v.items[j] = x
		v.admitted++
		v.delta.add(x)
		return true
	}
	return false
}

// OfferBatch processes a run of consecutive stream elements in one call,
// returning how many entered the reservoir. It draws exactly the same
// randomness as offering the elements one at a time, so the resulting
// sample is bit-identical to the per-element path and independent of how
// the stream is sliced into batches; the win is pre-drawing uniforms in
// bulk (FillUniform64 into a sampler-local scratch) and inlining the
// Lemire admission test, instead of paying a generator call, a state
// reload, and a division guard per element. LastDelta afterwards reports
// the batch's net admissions and evictions (adds first, then removals).
//
// Why prefilling is safe (the exact-drain invariant): in the steady state
// every element consumes at least one uniform — one Lemire multiply, plus
// rare rejection redraws that also come from the scratch in draw order.
// Each refill takes min(remaining, bulkDraws) values, which is a lower
// bound on the draws the rest of the batch must consume, so the scratch
// provably empties by the end of the batch and the generator finishes in
// exactly the per-element state. Snapshots, merges, and chunking
// invariance are therefore untouched by the bulk path.
//
//robust:hotpath
func (v *Reservoir[T]) OfferBatch(xs []T, r *rng.RNG) int {
	v.delta.clear()
	n := len(xs)
	admitted, i := 0, 0
	// Fill phase: the first K elements are stored without randomness.
	for i < n && len(v.items) < v.K {
		v.items = append(v.items, xs[i])
		v.delta.add(xs[i])
		v.rounds++
		v.admitted++
		admitted++
		i++
	}
	if i == n {
		return admitted
	}
	if cap(v.ubuf) < bulkDraws {
		v.ubuf = make([]uint64, bulkDraws)
	}
	buf := v.ubuf[:bulkDraws]
	items, K := v.items, v.K
	rounds := v.rounds
	bi, bn := 0, 0
	for ; i < n; i++ {
		if bi == bn {
			bn = min(n-i, bulkDraws)
			r.FillUniform64(buf[:bn])
			bi = 0
		}
		rounds++
		// Admit with probability K/rounds: draw j uniform in [0, rounds)
		// via Lemire's multiply and keep when j < K; j doubles as the
		// eviction slot. This is offerOne's r.Intn inlined against the
		// scratch, accept condition and redraw order included.
		m := uint64(rounds)
		hi, lo := bits.Mul64(buf[bi], m)
		bi++
		if lo < m {
			// Possible Lemire rejection; only now pay the division.
			thresh := (-m) % m
			for lo < thresh {
				if bi == bn {
					// The current element is still consuming draws, so
					// it counts toward the refill bound along with the
					// n-i-1 elements after it.
					bn = min(n-i, bulkDraws)
					r.FillUniform64(buf[:bn])
					bi = 0
				}
				hi, lo = bits.Mul64(buf[bi], m)
				bi++
			}
		}
		if j := int(hi); j < K {
			v.delta.remove(items[j])
			items[j] = xs[i]
			v.delta.add(xs[i])
			v.admitted++
			admitted++
		}
	}
	v.rounds = rounds
	return admitted
}

// LastDelta reports the element admitted by the most recent Offer and the
// element it evicted, if any (or the cumulative delta of the most recent
// OfferBatch).
func (v *Reservoir[T]) LastDelta() (added, removed []T) { return v.delta.view() }

// View returns the current sample without copying; callers must not mutate.
func (v *Reservoir[T]) View() []T { return v.items }

// Sample returns a copy of the current sample.
func (v *Reservoir[T]) Sample() []T { return append([]T(nil), v.items...) }

// Len returns the current sample size (min(K, rounds)).
func (v *Reservoir[T]) Len() int { return len(v.items) }

// Rounds returns the number of elements offered so far.
func (v *Reservoir[T]) Rounds() int { return v.rounds }

// TotalAdmitted returns k', the number of elements ever admitted to the
// reservoir including those later evicted. Section 5 of the paper bounds
// E[k'] <= 2k ln n; the attack experiments verify this.
func (v *Reservoir[T]) TotalAdmitted() int { return v.admitted }

// Reset clears the sampler for a fresh stream.
func (v *Reservoir[T]) Reset() {
	v.items = v.items[:0]
	v.rounds = 0
	v.admitted = 0
	v.delta.clear()
}

// WeightedReservoir implements Efraimidis-Spirakis A-Res weighted reservoir
// sampling without replacement ([ES06], discussed in Section 1.3): each
// element receives key u^(1/w) with u uniform in (0,1), and the K largest
// keys are kept. The inclusion probability of an element grows with its
// weight.
type WeightedReservoir[T any] struct {
	// K is the reservoir capacity.
	K int

	// heap of (key, item) with the smallest key at the root, so the
	// element most likely to be displaced is inspected in O(1).
	keys   []float64
	items  []T
	rounds int
	delta  sampleDelta[T]
}

// NewWeightedReservoir returns a weighted reservoir of capacity k. It panics
// unless k >= 1.
func NewWeightedReservoir[T any](k int) *WeightedReservoir[T] {
	if k < 1 {
		panic("sampler: weighted reservoir capacity must be >= 1")
	}
	return &WeightedReservoir[T]{K: k}
}

// Offer processes an element with the given positive weight, returning
// whether it was admitted. Elements with non-positive weight are never
// admitted.
func (w *WeightedReservoir[T]) Offer(x T, weight float64, r *rng.RNG) bool {
	w.rounds++
	w.delta.clear()
	if weight <= 0 || math.IsNaN(weight) {
		return false
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	key := math.Pow(u, 1/weight)
	if len(w.items) < w.K {
		w.push(key, x)
		w.delta.add(x)
		return true
	}
	if key <= w.keys[0] {
		return false
	}
	w.delta.remove(w.items[0])
	w.keys[0] = key
	w.items[0] = x
	w.delta.add(x)
	w.siftDown(0)
	return true
}

// LastDelta reports the element admitted by the most recent Offer and the
// element it displaced from the heap root, if any. It lets continuous games
// keep an incremental discrepancy accumulator in sync with the weighted
// sample in O(1) per round instead of rebuilding from View per checkpoint.
func (w *WeightedReservoir[T]) LastDelta() (added, removed []T) { return w.delta.view() }

func (w *WeightedReservoir[T]) push(key float64, x T) {
	w.keys = append(w.keys, key)
	w.items = append(w.items, x)
	i := len(w.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if w.keys[parent] <= w.keys[i] {
			break
		}
		w.swap(i, parent)
		i = parent
	}
}

func (w *WeightedReservoir[T]) siftDown(i int) {
	n := len(w.keys)
	for {
		l, rch := 2*i+1, 2*i+2
		smallest := i
		if l < n && w.keys[l] < w.keys[smallest] {
			smallest = l
		}
		if rch < n && w.keys[rch] < w.keys[smallest] {
			smallest = rch
		}
		if smallest == i {
			return
		}
		w.swap(i, smallest)
		i = smallest
	}
}

func (w *WeightedReservoir[T]) swap(i, j int) {
	w.keys[i], w.keys[j] = w.keys[j], w.keys[i]
	w.items[i], w.items[j] = w.items[j], w.items[i]
}

// View returns the current sample without copying; callers must not mutate.
// The order is heap order, not insertion order.
func (w *WeightedReservoir[T]) View() []T { return w.items }

// Sample returns a copy of the current sample.
func (w *WeightedReservoir[T]) Sample() []T { return append([]T(nil), w.items...) }

// Len returns the current sample size.
func (w *WeightedReservoir[T]) Len() int { return len(w.items) }

// Rounds returns the number of elements offered so far.
func (w *WeightedReservoir[T]) Rounds() int { return w.rounds }

// Reset clears the sampler for a fresh stream.
func (w *WeightedReservoir[T]) Reset() {
	w.keys = w.keys[:0]
	w.items = w.items[:0]
	w.rounds = 0
	w.delta.clear()
}

// WithReplacement maintains K independent uniform samples of size one (K
// independent single-slot reservoirs). It is used in ablations: unlike
// Algorithm R its slots are independent, which slightly changes the
// martingale variance profile of Section 4.2.
type WithReplacement[T any] struct {
	// K is the number of independent slots.
	K int

	items  []T
	filled bool
	rounds int
	delta  sampleDelta[T]

	// fbuf is OfferBatch's bulk-uniform scratch (always logically empty
	// between calls; see the exact-drain note in OfferBatch).
	fbuf []float64
}

// NewWithReplacement returns a with-replacement sampler with k slots. It
// panics unless k >= 1.
func NewWithReplacement[T any](k int) *WithReplacement[T] {
	if k < 1 {
		panic("sampler: with-replacement capacity must be >= 1")
	}
	return &WithReplacement[T]{K: k, items: make([]T, k)}
}

// Offer processes the next element; it returns true if any slot adopted it.
func (s *WithReplacement[T]) Offer(x T, r *rng.RNG) bool {
	s.delta.clear()
	return s.offerOne(x, r)
}

// offerOne is the per-element adoption step shared by Offer and OfferBatch,
// so the two paths cannot drift apart (the batch path's bit-identical-
// randomness guarantee depends on them staying the same).
func (s *WithReplacement[T]) offerOne(x T, r *rng.RNG) bool {
	s.rounds++
	if s.rounds == 1 {
		for i := range s.items {
			s.items[i] = x
			s.delta.add(x)
		}
		s.filled = true
		return true
	}
	// Each slot independently replaces its content with probability 1/i.
	// The number of adopting slots is Binomial(K, 1/i); sample it via
	// geometric skips to stay O(adoptions) per round in expectation.
	p := 1 / float64(s.rounds)
	i := 0
	admitted := false
	for i < s.K {
		skip := r.Geometric(p)
		if skip > int64(s.K-i-1) {
			break
		}
		i += int(skip)
		s.delta.remove(s.items[i])
		s.items[i] = x
		s.delta.add(x)
		admitted = true
		i++
	}
	return admitted
}

// OfferBatch processes a run of consecutive elements with exactly the same
// randomness as per-element Offers (bit-identical samples, chunking
// invariant). It returns the number of rounds in which any slot adopted the
// offered element. The batch path pre-draws uniforms with FillFloat64 into
// a sampler-local scratch and inlines the geometric skip arithmetic: every
// round consumes at least one nonzero uniform (the first skip draw), so a
// refill of min(remaining, bulkDraws) values is always fully consumed by
// the end of the batch and the generator lands in exactly the per-element
// state — the same exact-drain argument as Reservoir.OfferBatch.
//
//robust:hotpath
func (s *WithReplacement[T]) OfferBatch(xs []T, r *rng.RNG) int {
	s.delta.clear()
	n := len(xs)
	admitted, i := 0, 0
	if n > 0 && s.rounds == 0 {
		// First element ever: every slot adopts it, no randomness drawn.
		if s.offerOne(xs[0], r) {
			admitted++
		}
		i = 1
	}
	if i == n {
		return admitted
	}
	if cap(s.fbuf) < bulkDraws {
		s.fbuf = make([]float64, bulkDraws)
	}
	buf := s.fbuf[:bulkDraws]
	K := s.K
	bi, bn := 0, 0
	for ; i < n; i++ {
		s.rounds++
		// Each slot independently adopts with probability p = 1/rounds;
		// the adopting slots are located by geometric skips exactly as in
		// offerOne (Geometric's zero-rejection and saturation included),
		// only the uniforms come from the scratch.
		p := 1 / float64(s.rounds)
		logQ := math.Log(1 - p)
		k := 0
		adopted := false
		for k < K {
			var u float64
			for {
				if bi == bn {
					// The current round is still consuming draws, so it
					// counts toward the refill bound with the n-i-1
					// rounds after it.
					bn = min(n-i, bulkDraws)
					r.FillFloat64(buf[:bn])
					bi = 0
				}
				u = buf[bi]
				bi++
				if u != 0 {
					break
				}
			}
			skip := satGeom(math.Floor(math.Log(u) / logQ))
			if skip > int64(K-k-1) {
				break
			}
			k += int(skip)
			s.delta.remove(s.items[k])
			s.items[k] = xs[i]
			s.delta.add(xs[i])
			adopted = true
			k++
		}
		if adopted {
			admitted++
		}
	}
	return admitted
}

// satGeom mirrors the rng package's geometric saturation so the inlined
// skip arithmetic above stays bit-identical to rng.Geometric.
func satGeom(f float64) int64 {
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(f)
}

// LastDelta reports the slot adoptions of the most recent Offer: one added
// copy of the offered element per adopting slot, and the displaced values
// (or the cumulative delta of the most recent OfferBatch).
func (s *WithReplacement[T]) LastDelta() (added, removed []T) { return s.delta.view() }

// View returns the slots without copying; callers must not mutate. Before
// the first element arrives the slots hold zero values.
func (s *WithReplacement[T]) View() []T {
	if !s.filled {
		return nil
	}
	return s.items
}

// Sample returns a copy of the slots.
func (s *WithReplacement[T]) Sample() []T {
	return append([]T(nil), s.View()...)
}

// Len returns the number of live slots.
func (s *WithReplacement[T]) Len() int {
	if !s.filled {
		return 0
	}
	return s.K
}

// Rounds returns the number of elements offered so far.
func (s *WithReplacement[T]) Rounds() int { return s.rounds }

// Reset clears the sampler for a fresh stream.
func (s *WithReplacement[T]) Reset() {
	s.filled = false
	s.rounds = 0
	s.delta.clear()
	for i := range s.items {
		var zero T
		s.items[i] = zero
	}
}

// SortedCopy returns an ascending copy of an int64 sample; a convenience for
// tests and verdicts.
func SortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	slices.Sort(out)
	return out
}
