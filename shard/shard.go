// Package shard is the public sharded continuous-sampling engine: one
// stream of T routed across S shards, each maintaining its own robust
// sampler and incremental discrepancy accumulator, with coordinator
// queries that never touch raw substreams (Section 1.3 of the paper;
// Chung-Tirthapura-Woodruff [CTW16] and Cormode et al. [CMYZ12]):
//
//   - Verdict merges per-shard histograms into the exact discrepancy of
//     the union stream against the union sample — bit-identical to a
//     one-shot verdict on the concatenated stream, at a cost proportional
//     to distinct values, not traffic.
//   - GlobalSample draws a uniform sample of the union stream from the
//     per-shard samples alone (the [CTW16] coordinator primitive).
//   - Snapshot/Restore serialize the complete engine — every shard's
//     sampler, accumulator and RNG stream — through the same versioned
//     deterministic encoding as the rest of the module, so a deployment
//     can checkpoint, migrate or fan-in engines across processes.
//
// The engine is generic over its element type through a
// sketch.Universe[T] codec and is configured with functional options
// (WithShards, WithRouter, WithReservoir, WithWorkers, ...). It is
// deterministic given its seed: results are byte-identical for every
// worker count, and batch ingest is invariant to how the stream is sliced.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/runtime"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	ishard "robustsample/internal/shard"
	"robustsample/internal/snapshot"
	"robustsample/sketch"
)

// Sentinel errors.
var (
	// ErrBadShards reports a shard count below 1.
	ErrBadShards = errors.New("shard: shard count must be >= 1")
	// ErrBadMemory reports a per-shard sample capacity below 1.
	ErrBadMemory = sketch.ErrBadMemory
	// ErrBadRate reports a Bernoulli rate outside [0, 1].
	ErrBadRate = sketch.ErrBadRate
	// ErrNoSampler reports an engine built without a sampler option.
	ErrNoSampler = errors.New("shard: exactly one of WithReservoir, WithReservoirL or WithBernoulli is required")
	// ErrBadShardIndex reports a shard index outside [0, NumShards).
	ErrBadShardIndex = errors.New("shard: shard index out of range")
	// ErrBadSnapshot reports a corrupt or mismatched snapshot.
	ErrBadSnapshot = sketch.ErrBadSnapshot
	// ErrBadSample reports a non-positive GlobalSample size.
	ErrBadSample = errors.New("shard: global sample size must be >= 1")
	// ErrServing reports a direct engine operation while a Serving session
	// is open; Close the Serving first.
	ErrServing = errors.New("shard: engine is serving; close the Serving handle first")
	// ErrServingClosed reports an operation on a closed Serving session.
	ErrServingClosed = errors.New("shard: serving session is closed")
	// ErrBadProducer reports a producer lane index outside [0, Producers).
	ErrBadProducer = errors.New("shard: producer lane index out of range")
	// ErrBadConfig reports an out-of-range option value (negative worker,
	// producer or checkpoint counts); the wrapping error names the field.
	ErrBadConfig = errors.New("shard: invalid configuration")
	// ErrBackpressure reports an OfferContext/OfferBatchContext whose ctx
	// expired while the pipeline was applying backpressure (consumers not
	// keeping up); the returned error also matches the ctx error.
	ErrBackpressure = runtime.ErrBackpressure
	// ErrDrainTimeout reports a CloseContext whose ctx expired before the
	// shutdown drain finished; the drain continues in the background and
	// the returned error also matches the ctx error.
	ErrDrainTimeout = runtime.ErrDrainTimeout
)

// RouterKind selects how elements are routed to shards.
type RouterKind int

const (
	// RouterUniform routes each element to an independently uniform shard
	// (the load-balancing model of Section 1.2's distributed database).
	RouterUniform RouterKind = iota
	// RouterHash routes by a multiplicative hash of the value, so equal
	// values land on the same shard (sharded aggregation).
	RouterHash
	// RouterRoundRobin routes element i to shard (i-1) mod S — the
	// deterministic even-load baseline.
	RouterRoundRobin
)

func (k RouterKind) String() string {
	switch k {
	case RouterUniform:
		return "uniform"
	case RouterHash:
		return "hash"
	case RouterRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("RouterKind(%d)", int(k))
	}
}

func (k RouterKind) router() (ishard.Router, error) {
	switch k {
	case RouterUniform:
		return ishard.Uniform{}, nil
	case RouterHash:
		return ishard.HashByValue{}, nil
	case RouterRoundRobin:
		return ishard.RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("shard: unknown router kind %d", int(k))
	}
}

// System selects the set system coordinator verdicts are computed against.
type System int

const (
	// Prefixes is {[1,b]}: verdicts are the Kolmogorov-Smirnov distance
	// (the quantile guarantee, Corollary 1.5). The default.
	Prefixes System = iota
	// Intervals is {[a,b]}: all two-sided range densities.
	Intervals
	// Singletons is {{a}}: per-value densities (heavy hitters).
	Singletons
	// Suffixes is {[b,N]}.
	Suffixes
)

func (s System) String() string {
	switch s {
	case Prefixes:
		return "prefixes"
	case Intervals:
		return "intervals"
	case Singletons:
		return "singletons"
	case Suffixes:
		return "suffixes"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

func (s System) build(n int64) (setsystem.SetSystem, error) {
	switch s {
	case Prefixes:
		return setsystem.NewPrefixes(n), nil
	case Intervals:
		return setsystem.NewIntervals(n), nil
	case Singletons:
		return setsystem.NewSingletons(n), nil
	case Suffixes:
		return setsystem.NewSuffixes(n), nil
	default:
		return nil, fmt.Errorf("shard: unknown system %d", int(s))
	}
}

type samplerKind int

const (
	samplerNone samplerKind = iota
	samplerReservoir
	samplerReservoirL
	samplerBernoulli
)

type config struct {
	shards      int
	router      RouterKind
	system      System
	workers     int
	seed        uint64
	sampler     samplerKind
	memory      int
	rate        float64
	samplerOpts int // how many sampler options were applied
	pipeline    PipelineConfig
}

// Option configures New.
type Option func(*config) error

// WithShards sets S, the number of shards (default 1).
func WithShards(s int) Option {
	return func(c *config) error {
		if s < 1 {
			return ErrBadShards
		}
		c.shards = s
		return nil
	}
}

// WithRouter selects the routing mode (default RouterUniform).
func WithRouter(k RouterKind) Option {
	return func(c *config) error {
		if _, err := k.router(); err != nil {
			return err
		}
		c.router = k
		return nil
	}
}

// WithSystem selects the verdict set system (default Prefixes).
func WithSystem(s System) Option {
	return func(c *config) error {
		if _, err := s.build(1); err != nil {
			return err
		}
		c.system = s
		return nil
	}
}

// WithWorkers sizes the worker pool for parallel shard ingest: 0 (default)
// uses all CPUs, 1 runs inline. Results are byte-identical for every value.
func WithWorkers(w int) Option {
	return func(c *config) error {
		if w < 0 {
			return fmt.Errorf("%w: negative worker count %d", ErrBadConfig, w)
		}
		c.workers = w
		return nil
	}
}

// WithSeed sets the deterministic root seed (default sketch.DefaultSeed).
// The routing stream and every shard's private sampling stream are split
// from it.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithReservoir gives every shard a Reservoir (Algorithm R) sampler of
// capacity k.
func WithReservoir(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("%w: k=%d", ErrBadMemory, k)
		}
		c.sampler = samplerReservoir
		c.memory = k
		c.samplerOpts++
		return nil
	}
}

// WithReservoirL gives every shard an Algorithm L reservoir of capacity k
// (identical sample law to WithReservoir at O(k log(n/k)) random draws).
func WithReservoirL(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("%w: k=%d", ErrBadMemory, k)
		}
		c.sampler = samplerReservoirL
		c.memory = k
		c.samplerOpts++
		return nil
	}
}

// WithBernoulli gives every shard a Bernoulli(p) sampler.
func WithBernoulli(p float64) Option {
	return func(c *config) error {
		if p < 0 || p > 1 || p != p {
			return fmt.Errorf("%w: p=%v", ErrBadRate, p)
		}
		c.sampler = samplerBernoulli
		c.rate = p
		c.samplerOpts++
		return nil
	}
}

// Verdict is a decoded discrepancy: the exact maximal density deviation
// between the union stream and the union sample, with a witnessing range
// when one exists (HasWitness is false only for a zero-deviation verdict).
type Verdict[T any] struct {
	Err        float64
	Lo, Hi     T
	HasWitness bool
}

// Engine routes one stream of T across shards and answers global queries
// by merging per-shard state. Build it with New; it is not safe for
// concurrent use directly (parallelism is internal, across shards) — for
// concurrent producers and live queries, lift it into a serving session
// with Serve.
//
// Engine implements sketch.Sketch[T]: Offer/OfferBatch feed the routed
// stream, View/Len/Query read the union sample, and MergeFrom folds
// another engine's shards in ([CTW16] fan-in, shard by shard).
type Engine[T any] struct {
	u        sketch.Universe[T]
	cfg      config
	inner    *ishard.Engine
	coordRNG *rng.RNG // coordinator queries (GlobalSample) draw here
	encBuf   []int64
	srv      atomic.Pointer[Serving[T]] // non-nil while a serving session is open
	serveMu  sync.Mutex                 // serializes Serve calls
}

var _ sketch.Sketch[int64] = (*Engine[int64])(nil)

// New builds a sharded engine over u. Exactly one sampler option is
// required; every other option has a default.
func New[T any](u sketch.Universe[T], opts ...Option) (*Engine[T], error) {
	if u == nil {
		return nil, sketch.ErrNilUniverse
	}
	if u.Size() < 1 {
		return nil, fmt.Errorf("%w: size %d", sketch.ErrBadUniverse, u.Size())
	}
	c := config{shards: 1, seed: sketch.DefaultSeed}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	if c.samplerOpts == 0 {
		return nil, ErrNoSampler
	}
	if c.samplerOpts > 1 {
		return nil, fmt.Errorf("%w (got %d sampler options)", ErrNoSampler, c.samplerOpts)
	}
	router, err := c.router.router()
	if err != nil {
		return nil, err
	}
	sys, err := c.system.build(u.Size())
	if err != nil {
		return nil, err
	}
	e := &Engine[T]{u: u, cfg: c}
	e.inner = ishard.New(ishard.Config{
		Shards: c.shards,
		Router: router,
		System: sys,
		NewSampler: func(int) game.Sampler {
			switch c.sampler {
			case samplerReservoirL:
				return sampler.NewReservoirL[int64](c.memory)
			case samplerBernoulli:
				return sampler.NewBernoulli[int64](c.rate)
			default:
				return sampler.NewReservoir[int64](c.memory)
			}
		},
		Workers: c.workers,
	}, nil)
	e.seed()
	return e, nil
}

// seed (re)derives the engine's RNG tree from the configured seed: the
// coordinator query stream first, then the internal engine's routing and
// per-shard streams.
func (e *Engine[T]) seed() {
	root := rng.New(e.cfg.seed)
	e.coordRNG = root.Split()
	e.inner.StartGame(root)
}

// NumShards returns S.
func (e *Engine[T]) NumShards() int { return e.inner.NumShards() }

// Rounds returns the number of elements routed so far. While a Serving
// session is open it delegates to the session (elements accepted by the
// pipeline, applied or not), like every other read method.
func (e *Engine[T]) Rounds() int {
	if s := e.srv.Load(); s != nil {
		return s.Rounds()
	}
	return e.inner.Rounds()
}

// ShardRounds returns the length of shard i's substream (behind the
// session's read barrier while serving).
func (e *Engine[T]) ShardRounds(i int) (int, error) {
	if i < 0 || i >= e.inner.NumShards() {
		return 0, ErrBadShardIndex
	}
	if s := e.srv.Load(); s != nil {
		return s.inner.ShardRounds(i), nil
	}
	return e.inner.ShardRounds(i), nil
}

// Offer routes one element to its shard, reporting whether that shard's
// sampler admitted it (the sketch.Sketch contract). Use OfferRouted when
// the destination shard matters.
func (e *Engine[T]) Offer(x T) (admitted bool, err error) {
	_, admitted, err = e.OfferRouted(x)
	return admitted, err
}

// OfferRouted is Offer additionally reporting the destination shard — the
// adaptive path, where a client sees both before choosing its next
// element.
func (e *Engine[T]) OfferRouted(x T) (shardIdx int, admitted bool, err error) {
	if e.srv.Load() != nil {
		return 0, false, ErrServing
	}
	p, err := e.u.Encode(x)
	if err != nil {
		return 0, false, err
	}
	shardIdx, admitted = e.inner.Offer(p)
	return shardIdx, admitted, nil
}

// OfferBatch routes a run of consecutive elements, fanning per-shard
// ingest across the worker pool, and reports how many entered some shard's
// sample. The result is byte-identical for every worker count and
// invariant to how the stream is sliced into batches. The batch is atomic:
// if any element is outside the universe, nothing is ingested.
func (e *Engine[T]) OfferBatch(xs []T) (int, error) {
	if e.srv.Load() != nil {
		return 0, ErrServing
	}
	buf, err := e.encode(e.encBuf[:0], xs)
	if err != nil {
		return 0, err
	}
	e.encBuf = buf
	return e.inner.OfferBatch(buf), nil
}

// batchEncoder is a universe that encodes a whole batch in one call (the
// int64 range universes of sketch); other universes are encoded element by
// element.
type batchEncoder[T any] interface {
	EncodeBatch(dst []int64, xs []T) ([]int64, error)
}

// encode appends the encoded xs to buf, failing on the first element
// outside the universe (callers then submit nothing).
func (e *Engine[T]) encode(buf []int64, xs []T) ([]int64, error) {
	if be, ok := e.u.(batchEncoder[T]); ok {
		return be.EncodeBatch(buf, xs)
	}
	for _, x := range xs {
		p, err := e.u.Encode(x)
		if err != nil {
			return nil, err
		}
		buf = append(buf, p)
	}
	return buf, nil
}

// decode maps encoded sample points back to elements: the one decode loop
// behind every sample read.
func (e *Engine[T]) decode(ps []int64) ([]T, error) {
	out := make([]T, len(ps))
	for i, p := range ps {
		x, err := e.u.Decode(p)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// mustDecode is decode for the reads that return no error: retained points
// were validated on admission, so an undecodable one is internal
// corruption, not caller error.
func (e *Engine[T]) mustDecode(ps []int64) []T {
	out, err := e.decode(ps)
	if err != nil {
		panic(fmt.Sprintf("shard: sample holds an undecodable point: %v", err))
	}
	return out
}

// decodeVerdict maps an internal discrepancy to the decoded form.
func (e *Engine[T]) decodeVerdict(d setsystem.Discrepancy) (Verdict[T], error) {
	v := Verdict[T]{Err: d.Err}
	if d.Lo < 1 || d.Hi < 1 {
		return v, nil
	}
	lo, err := e.u.Decode(d.Lo)
	if err != nil {
		return v, err
	}
	hi, err := e.u.Decode(d.Hi)
	if err != nil {
		return v, err
	}
	v.Lo, v.Hi, v.HasWitness = lo, hi, true
	return v, nil
}

// Verdict returns the exact global discrepancy of the union stream against
// the union of the per-shard samples, computed by folding per-shard
// histograms (no raw substream is re-read). It is bit-identical to a
// one-shot verdict on the concatenated stream, for every routing mode,
// shard count and worker count.
func (e *Engine[T]) Verdict() (Verdict[T], error) {
	if s := e.srv.Load(); s != nil {
		// Reads delegate to the live session's barriers.
		return s.Verdict()
	}
	return e.decodeVerdict(e.inner.Verdict())
}

// ShardVerdict returns shard i's local discrepancy: its substream against
// its own sample. A shard can be locally representative while the union is
// not, and vice versa.
func (e *Engine[T]) ShardVerdict(i int) (Verdict[T], error) {
	if s := e.srv.Load(); s != nil {
		return s.ShardVerdict(i)
	}
	if i < 0 || i >= e.inner.NumShards() {
		return Verdict[T]{}, ErrBadShardIndex
	}
	return e.decodeVerdict(e.inner.ShardVerdict(i))
}

// Sample returns the union of the per-shard samples, decoded, in shard
// order (behind the session's read barriers while serving). Retained
// points were validated on admission, so an undecodable one is internal
// corruption and panics.
func (e *Engine[T]) Sample() []T {
	if s := e.srv.Load(); s != nil {
		return s.Sample()
	}
	return e.mustDecode(e.inner.SampleView())
}

// SampleLen returns the union sample size.
func (e *Engine[T]) SampleLen() int {
	if s := e.srv.Load(); s != nil {
		return s.SampleLen()
	}
	return e.inner.SampleLen()
}

// View implements sketch.Sketch: the union sample, decoded (an alias of
// Sample under the unified interface's name).
func (e *Engine[T]) View() []T { return e.Sample() }

// Len implements sketch.Sketch: the union sample size.
func (e *Engine[T]) Len() int { return e.SampleLen() }

// Query implements sketch.Sketch: the union sample's density on the closed
// range [lo, hi] in universe order — the quantity the robustness theorems
// bound against the union stream's density.
func (e *Engine[T]) Query(lo, hi T) (float64, error) {
	elo, err := e.u.Encode(lo)
	if err != nil {
		return 0, err
	}
	ehi, err := e.u.Encode(hi)
	if err != nil {
		return 0, err
	}
	if elo > ehi {
		return 0, fmt.Errorf("%w: lo sorts after hi", sketch.ErrBadRange)
	}
	var view []int64
	if s := e.srv.Load(); s != nil {
		view = s.inner.Sample()
	} else {
		view = e.inner.SampleView()
	}
	if len(view) == 0 {
		return 0, sketch.ErrEmpty
	}
	in := 0
	for _, p := range view {
		if p >= elo && p <= ehi {
			in++
		}
	}
	return float64(in) / float64(len(view)), nil
}

// MergeFrom implements sketch.Sketch: it folds another engine's complete
// state into the receiver, shard by shard — the [CTW16] coordinator fan-in
// lifted to whole engines, so two engines that sampled disjoint streams
// (two processes, two data centers) collapse into one whose verdicts and
// samples describe the union traffic. Shard i of the donor merges into
// shard i of the receiver: reservoirs by population-weighted interleave,
// Bernoulli samplers by union; Algorithm L reservoirs cannot merge without
// bias and report ErrUnsupportedMerge. Both engines must share the shard
// count, sampler shape, set system and universe size (routing may differ);
// the donor is not modified.
func (e *Engine[T]) MergeFrom(other sketch.Sketch[T]) error {
	o, ok := other.(*Engine[T])
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *Engine", sketch.ErrIncompatible, other)
	}
	if e.srv.Load() != nil || o.srv.Load() != nil {
		return ErrServing
	}
	if e.u.Size() != o.u.Size() {
		return fmt.Errorf("%w: universe sizes %d and %d", sketch.ErrIncompatible, e.u.Size(), o.u.Size())
	}
	if e.cfg.sampler == samplerReservoirL {
		return fmt.Errorf("%w: Algorithm L skip state is not mergeable", sketch.ErrUnsupportedMerge)
	}
	if e.cfg.shards != o.cfg.shards || e.cfg.system != o.cfg.system ||
		e.cfg.sampler != o.cfg.sampler || e.cfg.memory != o.cfg.memory || e.cfg.rate != o.cfg.rate {
		return fmt.Errorf("%w: engine configurations differ", sketch.ErrIncompatible)
	}
	if err := e.inner.MergeFromEngine(o.inner); err != nil {
		return fmt.Errorf("%w: %v", sketch.ErrIncompatible, err)
	}
	return nil
}

// GlobalSample draws a uniform without-replacement sample of size k of the
// union stream from the per-shard samples alone ([CTW16] fan-in), clamped
// to the available sampled elements. Coordinator queries draw from their
// own RNG stream, so they never perturb routing or sampling.
func (e *Engine[T]) GlobalSample(k int) ([]T, error) {
	if s := e.srv.Load(); s != nil {
		return s.GlobalSample(k)
	}
	if k < 1 {
		return nil, ErrBadSample
	}
	return e.decode(e.inner.GlobalSample(k, e.coordRNG))
}

// Reset clears the engine for a fresh stream and re-derives its RNG tree
// from the configured seed, so a Reset engine replays identically. While a
// Serving session is open Reset is ignored — close the session first.
func (e *Engine[T]) Reset() {
	if e.srv.Load() != nil {
		return
	}
	e.seed()
}

// Snapshot serializes the complete engine state — coordinator counters and
// RNG, and every shard's RNG, sampler and accumulator — as a versioned
// deterministic byte string. Snapshotting a restored engine reproduces the
// bytes bit for bit.
func (e *Engine[T]) Snapshot() ([]byte, error) {
	if s := e.srv.Load(); s != nil {
		// A live session snapshots through its own read barrier.
		return s.Snapshot()
	}
	hi, lo := e.coordRNG.State()
	out, err := ishard.AppendState(e.snapPreamble(hi, lo), e.inner)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// snapPreamble builds the snapshot preamble — frame header, universe size,
// coordinator RNG state — shared byte-for-byte by the serial path above and
// the serving session's frozen Snapshot, so the two formats cannot drift.
func (e *Engine[T]) snapPreamble(hi, lo uint64) []byte {
	buf := sketch.AppendFrameHeader(nil, sketch.FrameShard)
	buf = snapshot.AppendInt64(buf, e.u.Size())
	buf = snapshot.AppendUint64(buf, hi)
	return snapshot.AppendUint64(buf, lo)
}

// Restore replaces the engine's state with a snapshot produced by an
// engine with the same configuration (shard count, sampler shape, set
// system, universe size — verified structurally). On error the engine
// state is unspecified; Reset recovers a usable empty engine.
func (e *Engine[T]) Restore(data []byte) error {
	if e.srv.Load() != nil {
		return ErrServing
	}
	r, err := sketch.ReadFrameHeader(data, sketch.FrameShard)
	if err != nil {
		return err
	}
	size := r.Int64()
	hi := r.Uint64()
	lo := r.Uint64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if size != e.u.Size() {
		return fmt.Errorf("%w: snapshot universe size %d, engine has %d", ErrBadSnapshot, size, e.u.Size())
	}
	if err := ishard.LoadState(r, e.inner); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.Len())
	}
	e.coordRNG.SetState(hi, lo)
	return nil
}
