package sketch

import (
	"fmt"
	"math"

	"robustsample/internal/core"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/snapshot"
)

// base carries what every sketch shares: the universe codec, the owned RNG
// and the seed it Resets to, plus a reusable encode buffer for batches.
type base[T any] struct {
	u      Universe[T]
	seed   uint64
	rng    *rng.RNG
	encBuf []int64
}

func newBase[T any](u Universe[T], opts []Option) (base[T], error) {
	var b base[T]
	if u == nil {
		return b, ErrNilUniverse
	}
	if u.Size() < 1 {
		return b, fmt.Errorf("%w: size %d", ErrBadUniverse, u.Size())
	}
	c, err := applyOptions(opts)
	if err != nil {
		return b, err
	}
	return base[T]{u: u, seed: c.seed, rng: rng.New(c.seed)}, nil
}

func (b *base[T]) reset() { b.rng = rng.New(b.seed) }

// batchEncoder is a universe that encodes a whole batch in one call (the
// int64 range universes); other universes are encoded element by element.
type batchEncoder[T any] interface {
	EncodeBatch(dst []int64, xs []T) ([]int64, error)
}

// encodeBatch encodes xs into a buffer reused across calls; it fails before
// any ingest if any element is outside the universe (atomic batches).
func (b *base[T]) encodeBatch(xs []T) ([]int64, error) {
	buf := b.encBuf[:0]
	if be, ok := b.u.(batchEncoder[T]); ok {
		var err error
		if buf, err = be.EncodeBatch(buf, xs); err != nil {
			return nil, err
		}
	} else {
		for _, x := range xs {
			p, err := b.u.Encode(x)
			if err != nil {
				return nil, err
			}
			buf = append(buf, p)
		}
	}
	b.encBuf = buf
	return buf, nil
}

// decodeAll decodes a sample of encoded points. Points in a sample were
// produced by Encode, so Decode failing is an invariant violation.
func (b *base[T]) decodeAll(ps []int64) []T {
	out := make([]T, len(ps))
	for i, p := range ps {
		x, err := b.u.Decode(p)
		if err != nil {
			panic(fmt.Sprintf("sketch: sample holds undecodable point %d: %v", p, err))
		}
		out[i] = x
	}
	return out
}

// encodedRange validates and encodes a query range.
func (b *base[T]) encodedRange(lo, hi T) (elo, ehi int64, err error) {
	elo, err = b.u.Encode(lo)
	if err != nil {
		return 0, 0, err
	}
	ehi, err = b.u.Encode(hi)
	if err != nil {
		return 0, 0, err
	}
	if elo > ehi {
		return 0, 0, fmt.Errorf("%w: lo sorts after hi", ErrBadRange)
	}
	return elo, ehi, nil
}

// rangeDensity returns the fraction of sample points in [elo, ehi].
func rangeDensity(sample []int64, elo, ehi int64) (float64, error) {
	if len(sample) == 0 {
		return 0, ErrEmpty
	}
	in := 0
	for _, p := range sample {
		if p >= elo && p <= ehi {
			in++
		}
	}
	return float64(in) / float64(len(sample)), nil
}

// appendSnapHeader appends the frame header, universe size and RNG state.
func (b *base[T]) appendSnapHeader(buf []byte, kind byte) []byte {
	buf = AppendFrameHeader(buf, kind)
	buf = snapshot.AppendInt64(buf, b.u.Size())
	hi, lo := b.rng.State()
	buf = snapshot.AppendUint64(buf, hi)
	return snapshot.AppendUint64(buf, lo)
}

// readSnapHeader validates the header and returns the payload reader plus
// the snapshotted RNG state, which the caller applies only after the
// payload decodes.
func (b *base[T]) readSnapHeader(data []byte, kind byte) (r *snapshot.Reader, hi, lo uint64, err error) {
	r, err = ReadFrameHeader(data, kind)
	if err != nil {
		return nil, 0, 0, err
	}
	size := r.Int64()
	hi = r.Uint64()
	lo = r.Uint64()
	if err := r.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if size != b.u.Size() {
		return nil, 0, 0, fmt.Errorf("%w: snapshot universe size %d, sketch has %d", ErrBadSnapshot, size, b.u.Size())
	}
	return r, hi, lo, nil
}

// finishRestore validates the restored sample against the universe,
// applies the RNG state and rejects trailing bytes. Point validation is
// load-bearing: a corrupt snapshot whose counters decode cleanly can still
// carry sample points no Decode can invert, and without this check the
// corruption would surface later as a View panic instead of an
// ErrBadSnapshot at the restore boundary (found by FuzzSwitchingSnapshot).
//
//robust:universe-check
func (b *base[T]) finishRestore(r *snapshot.Reader, hi, lo uint64, sample []int64) error {
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.Len())
	}
	for _, p := range sample {
		if p < 1 || p > b.u.Size() {
			return fmt.Errorf("%w: sample point %d outside universe [1, %d]", ErrBadSnapshot, p, b.u.Size())
		}
	}
	b.rng.SetState(hi, lo)
	return nil
}

func validateParams(eps, delta float64, n int) error {
	if !(eps > 0 && eps < 1) || !(delta > 0 && delta < 1) || n < 1 {
		return fmt.Errorf("%w: eps=%v delta=%v n=%d", ErrBadParams, eps, delta, n)
	}
	return nil
}

// sameUniverse gates merges: sketches must agree on the universe size (the
// codec itself is caller-supplied and cannot be compared structurally; size
// equality catches every accidental mismatch the encoding can detect).
func sameUniverse[T any](a, b *base[T]) error {
	if a.u.Size() != b.u.Size() {
		return fmt.Errorf("%w: universe sizes %d and %d", ErrIncompatible, a.u.Size(), b.u.Size())
	}
	return nil
}

// ---------------------------------------------------------------------------
// The shared sampler core

// sampled is the part of an int64 sampler that samplerCore reads.
type sampled interface {
	View() []int64
	Len() int
	Rounds() int
	Reset()
}

// samplerCore is the state every sampler sketch shares: the universe codec
// and RNG, the int64 sampler over encoded points, and the sampler's frame
// kind with its snapshot codec pair. It implements the Sketch methods that do
// not depend on how the sampler admits elements.
type samplerCore[T any, S sampled] struct {
	base        base[T]
	inner       S
	kind        byte
	appendState func([]byte, S) []byte
	loadState   func(*snapshot.Reader, S) error
}

// View implements Sketch.
func (s *samplerCore[T, S]) View() []T { return s.base.decodeAll(s.inner.View()) }

// EncodedView returns the sample as universe points without copying;
// callers must not mutate it. This is what the discrepancy engines consume.
func (s *samplerCore[T, S]) EncodedView() []int64 { return s.inner.View() }

// Len implements Sketch.
func (s *samplerCore[T, S]) Len() int { return s.inner.Len() }

// Rounds implements Sketch.
func (s *samplerCore[T, S]) Rounds() int { return s.inner.Rounds() }

// Query implements Sketch.
func (s *samplerCore[T, S]) Query(lo, hi T) (float64, error) {
	elo, ehi, err := s.base.encodedRange(lo, hi)
	if err != nil {
		return 0, err
	}
	return rangeDensity(s.inner.View(), elo, ehi)
}

// Reset implements Sketch.
func (s *samplerCore[T, S]) Reset() {
	s.inner.Reset()
	s.base.reset()
}

// Snapshot implements Sketch.
func (s *samplerCore[T, S]) Snapshot() ([]byte, error) {
	return s.appendState(s.base.appendSnapHeader(nil, s.kind), s.inner), nil
}

// Restore implements Sketch. On error the sketch state is unspecified;
// Reset recovers a usable empty sketch.
func (s *samplerCore[T, S]) Restore(data []byte) error {
	r, hi, lo, err := s.base.readSnapHeader(data, s.kind)
	if err != nil {
		return err
	}
	if err := s.loadState(r, s.inner); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s.base.finishRestore(r, hi, lo, s.inner.View())
}

// offerer is an int64 sampler that admits unweighted elements.
type offerer interface {
	sampled
	Offer(x int64, r *rng.RNG) bool
	OfferBatch(xs []int64, r *rng.RNG) int
}

// unweightedCore adds the Sketch offers to the core of an unweighted
// sampler.
type unweightedCore[T any, S offerer] struct {
	samplerCore[T, S]
}

// Offer implements Sketch.
func (s *unweightedCore[T, S]) Offer(x T) (bool, error) {
	p, err := s.base.u.Encode(x)
	if err != nil {
		return false, err
	}
	return s.inner.Offer(p, s.base.rng), nil
}

// OfferBatch implements Sketch.
func (s *unweightedCore[T, S]) OfferBatch(xs []T) (int, error) {
	ps, err := s.base.encodeBatch(xs)
	if err != nil {
		return 0, err
	}
	return s.inner.OfferBatch(ps, s.base.rng), nil
}

// ---------------------------------------------------------------------------
// Reservoir (Algorithm R)

// Reservoir is the paper's ReservoirSample (Vitter's Algorithm R) over an
// arbitrary ordered universe: a uniform without-replacement sample of fixed
// capacity. Sized per Theorem 1.2 (NewRobustReservoir) it is an
// (eps, delta)-approximation against fully adaptive adversaries. OfferBatch
// draws randomness bit-identically to per-element Offers.
type Reservoir[T any] struct {
	unweightedCore[T, *sampler.Reservoir[int64]]
}

var _ Sketch[int64] = (*Reservoir[int64])(nil)

// NewReservoir returns a reservoir sketch of capacity k over u.
func NewReservoir[T any](u Universe[T], k int, opts ...Option) (*Reservoir[T], error) {
	b, err := newBase(u, opts)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadMemory, k)
	}
	return &Reservoir[T]{unweightedCore[T, *sampler.Reservoir[int64]]{samplerCore[T, *sampler.Reservoir[int64]]{
		base: b, inner: sampler.NewReservoir[int64](k),
		kind: kindReservoir, appendState: sampler.AppendReservoirState, loadState: sampler.LoadReservoirState,
	}}}, nil
}

// NewRobustReservoir returns a reservoir sized per Theorem 1.2 for the
// prefix system over u — k = ceil(2 (ln|U| + ln(2/delta)) / eps^2) — the
// size at which the sample is an (eps, delta)-approximation of any
// adaptively chosen stream of length n (and the sizing of the quantile
// application, Corollary 1.5).
func NewRobustReservoir[T any](u Universe[T], eps, delta float64, n int, opts ...Option) (*Reservoir[T], error) {
	if err := validateParams(eps, delta, n); err != nil {
		return nil, err
	}
	if u == nil {
		return nil, ErrNilUniverse
	}
	k := core.ReservoirSize(core.Params{Eps: eps, Delta: delta, N: n}, math.Log(float64(u.Size())))
	return NewReservoir(u, k, opts...)
}

// NewContinuousRobustReservoir sizes the reservoir per Theorem 1.4, making
// the sample an eps-approximation at every prefix of the stream
// simultaneously (with probability 1-delta).
func NewContinuousRobustReservoir[T any](u Universe[T], eps, delta float64, n int, opts ...Option) (*Reservoir[T], error) {
	if err := validateParams(eps, delta, n); err != nil {
		return nil, err
	}
	if u == nil {
		return nil, ErrNilUniverse
	}
	k := core.ContinuousReservoirSize(core.Params{Eps: eps, Delta: delta, N: n}, math.Log(float64(u.Size())))
	return NewReservoir(u, k, opts...)
}

// K returns the reservoir capacity.
func (s *Reservoir[T]) K() int { return s.inner.K }

// TotalAdmitted returns k', the number of elements ever admitted (Section 5
// bounds E[k'] <= 2k ln n under any adaptive attack).
func (s *Reservoir[T]) TotalAdmitted() int { return s.inner.TotalAdmitted() }

// MergeFrom implements Sketch: the receiver becomes a uniform sample of the
// concatenated streams, drawn from the two samples alone by
// population-weighted interleaving (sampler.MergeSamples, the
// [CTW16]/[CMYZ12] coordinator primitive).
//
// The two samples must together supply min(K, combined rounds) elements —
// otherwise the merged reservoir would sit under-full against an
// over-full round count and admit subsequent offers with the wrong
// probability; such a merge (the donor's capacity was too small for its
// stream) reports ErrIncompatible and leaves the receiver unchanged.
func (s *Reservoir[T]) MergeFrom(other Sketch[T]) error {
	o, ok := other.(*Reservoir[T])
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *Reservoir", ErrIncompatible, other)
	}
	if err := sameUniverse(&s.base, &o.base); err != nil {
		return err
	}
	rounds := s.inner.Rounds() + o.inner.Rounds()
	k := min(s.inner.K, rounds)
	if s.inner.Len()+o.inner.Len() < k {
		return fmt.Errorf("%w: samples supply %d elements, need %d (merge a reservoir of capacity >= %d)",
			ErrIncompatible, s.inner.Len()+o.inner.Len(), k, s.inner.K)
	}
	merged := sampler.MergeSamples(s.inner.View(), s.inner.Rounds(), o.inner.View(), o.inner.Rounds(), k, s.base.rng)
	s.inner.SetMergedState(merged, rounds, s.inner.TotalAdmitted()+o.inner.TotalAdmitted())
	return nil
}

// ---------------------------------------------------------------------------
// ReservoirL (Algorithm L)

// ReservoirL is Vitter's Algorithm L: the same sample distribution (and the
// same adversarial robustness — admissions are value-oblivious) as
// Reservoir at O(k log(n/k)) expected random draws, the variant to deploy
// on high-throughput streams. OfferBatch consumes pending skips in one jump,
// so long rejected stretches cost O(1) per batch. Its skip state is not
// mergeable without bias, so MergeFrom reports ErrUnsupportedMerge;
// snapshots include the skip machinery, so a restored sketch continues the
// exact skip sequence.
type ReservoirL[T any] struct {
	unweightedCore[T, *sampler.ReservoirL[int64]]
}

var _ Sketch[int64] = (*ReservoirL[int64])(nil)

// NewReservoirL returns an Algorithm L reservoir sketch of capacity k.
func NewReservoirL[T any](u Universe[T], k int, opts ...Option) (*ReservoirL[T], error) {
	b, err := newBase(u, opts)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadMemory, k)
	}
	return &ReservoirL[T]{unweightedCore[T, *sampler.ReservoirL[int64]]{samplerCore[T, *sampler.ReservoirL[int64]]{
		base: b, inner: sampler.NewReservoirL[int64](k),
		kind: kindReservoirL, appendState: sampler.AppendReservoirLState, loadState: sampler.LoadReservoirLState,
	}}}, nil
}

// K returns the reservoir capacity.
func (s *ReservoirL[T]) K() int { return s.inner.K }

// MergeFrom implements Sketch by reporting ErrUnsupportedMerge: Algorithm
// L's pre-drawn skip schedule cannot absorb another sample without biasing
// future admissions. Use Reservoir when fan-in is needed.
func (s *ReservoirL[T]) MergeFrom(Sketch[T]) error { return ErrUnsupportedMerge }

// ---------------------------------------------------------------------------
// Bernoulli

// Bernoulli is the paper's BernoulliSample: every element admitted
// independently with probability P. Sized per Theorem 1.2
// (NewRobustBernoulli) it is (eps, delta)-robust against adaptive
// adversaries; unlike the reservoirs its memory grows with the stream.
// OfferBatch gap-skips rejected stretches with one geometric draw per
// admitted element — O(P·n) RNG work — selecting an equally distributed
// (not bit-identical) sample versus per-element Offers.
type Bernoulli[T any] struct {
	unweightedCore[T, *sampler.Bernoulli[int64]]
}

var _ Sketch[int64] = (*Bernoulli[int64])(nil)

// NewBernoulli returns a Bernoulli sketch with rate p in [0, 1].
func NewBernoulli[T any](u Universe[T], p float64, opts ...Option) (*Bernoulli[T], error) {
	b, err := newBase(u, opts)
	if err != nil {
		return nil, err
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("%w: p=%v", ErrBadRate, p)
	}
	return &Bernoulli[T]{unweightedCore[T, *sampler.Bernoulli[int64]]{samplerCore[T, *sampler.Bernoulli[int64]]{
		base: b, inner: sampler.NewBernoulli[int64](p),
		kind: kindBernoulli, appendState: sampler.AppendBernoulliState, loadState: sampler.LoadBernoulliState,
	}}}, nil
}

// NewRobustBernoulli returns a Bernoulli sketch with the Theorem 1.2 rate
// for the prefix system over u: p = 10 (ln|U| + ln(4/delta)) / (eps^2 n).
func NewRobustBernoulli[T any](u Universe[T], eps, delta float64, n int, opts ...Option) (*Bernoulli[T], error) {
	if err := validateParams(eps, delta, n); err != nil {
		return nil, err
	}
	if u == nil {
		return nil, ErrNilUniverse
	}
	p := core.BernoulliRate(core.Params{Eps: eps, Delta: delta, N: n}, math.Log(float64(u.Size())))
	return NewBernoulli(u, p, opts...)
}

// P returns the admission rate.
func (s *Bernoulli[T]) P() float64 { return s.inner.P }

// MergeFrom implements Sketch. Both sketches must share the admission rate;
// the union of two Bernoulli(p) samples over disjoint streams is exactly a
// Bernoulli(p) sample of the concatenation, so merging is lossless.
func (s *Bernoulli[T]) MergeFrom(other Sketch[T]) error {
	o, ok := other.(*Bernoulli[T])
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *Bernoulli", ErrIncompatible, other)
	}
	if err := sameUniverse(&s.base, &o.base); err != nil {
		return err
	}
	if s.inner.P != o.inner.P {
		return fmt.Errorf("%w: rates %v and %v", ErrIncompatible, s.inner.P, o.inner.P)
	}
	merged := append(append([]int64(nil), s.inner.View()...), o.inner.View()...)
	s.inner.SetMergedState(merged, s.inner.Rounds()+o.inner.Rounds())
	return nil
}

// ---------------------------------------------------------------------------
// Weighted (Efraimidis-Spirakis A-Res)

// Weighted is the Efraimidis-Spirakis weighted reservoir of Section 1.3:
// each element receives key u^(1/w) and the K largest keys are kept, so
// inclusion probability grows with weight. Offer uses weight 1; use
// OfferWeighted for explicit weights. View returns the sample in heap order,
// not insertion order, and snapshots store the keys in heap order, which
// round-trips exactly.
type Weighted[T any] struct {
	samplerCore[T, *sampler.WeightedReservoir[int64]]
}

var _ Sketch[int64] = (*Weighted[int64])(nil)

// NewWeighted returns a weighted reservoir sketch of capacity k.
func NewWeighted[T any](u Universe[T], k int, opts ...Option) (*Weighted[T], error) {
	b, err := newBase(u, opts)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadMemory, k)
	}
	return &Weighted[T]{samplerCore[T, *sampler.WeightedReservoir[int64]]{
		base: b, inner: sampler.NewWeightedReservoir[int64](k),
		kind: kindWeighted, appendState: sampler.AppendWeightedState, loadState: sampler.LoadWeightedState,
	}}, nil
}

// K returns the reservoir capacity.
func (s *Weighted[T]) K() int { return s.inner.K }

// OfferWeighted processes an element with the given weight. Non-positive or
// NaN weights are never admitted (matching [ES06]); no error is reported
// for them, mirroring the internal sampler's contract.
func (s *Weighted[T]) OfferWeighted(x T, weight float64) (bool, error) {
	p, err := s.base.u.Encode(x)
	if err != nil {
		return false, err
	}
	return s.inner.Offer(p, weight, s.base.rng), nil
}

// Offer implements Sketch with weight 1 (uniform sampling).
func (s *Weighted[T]) Offer(x T) (bool, error) { return s.OfferWeighted(x, 1) }

// OfferBatch implements Sketch with weight 1 per element.
func (s *Weighted[T]) OfferBatch(xs []T) (int, error) {
	ps, err := s.base.encodeBatch(xs)
	if err != nil {
		return 0, err
	}
	admitted := 0
	for _, p := range ps {
		if s.inner.Offer(p, 1, s.base.rng) {
			admitted++
		}
	}
	return admitted, nil
}

// MergeFrom implements Sketch. A-Res keys are independent per element, so
// the top-K keys of the union of two key sets are exactly the A-Res sample
// of the concatenated weighted stream — merging keeps the K largest keys
// across both sketches, losslessly.
//
// Losslessness needs the donor to have retained every candidate for the
// receiver's top K, i.e. a donor capacity >= K: a smaller donor may have
// evicted elements that belong in the merged sample, silently biasing it
// toward the receiver's stream. Such merges report ErrIncompatible.
func (s *Weighted[T]) MergeFrom(other Sketch[T]) error {
	o, ok := other.(*Weighted[T])
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *Weighted", ErrIncompatible, other)
	}
	if err := sameUniverse(&s.base, &o.base); err != nil {
		return err
	}
	if o.inner.K < s.inner.K {
		return fmt.Errorf("%w: donor capacity %d < receiver capacity %d (donor may have evicted merged-sample candidates)",
			ErrIncompatible, o.inner.K, s.inner.K)
	}
	s.inner.MergeFrom(o.inner)
	return nil
}
