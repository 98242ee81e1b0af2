// Package shard implements the sharded continuous-sampling engine connecting
// the paper's adversarial-robustness results to continuous distributed
// sampling (Section 1.3; Chung-Tirthapura-Woodruff [CTW16] and Cormode et
// al. [CMYZ12]): one (possibly adaptive) stream is routed across S shards,
// each shard maintains its own sampler over its substream with a private
// split-RNG stream plus an incremental discrepancy accumulator, and a
// coordinator answers global checkpoint queries without ever touching raw
// substreams:
//
//   - Verdict merges the per-shard histograms through the setsystem
//     Accumulator's MergeFrom path, yielding the exact discrepancy of the
//     union stream against the union sample — bit-identical (error AND
//     witness) to a one-shot MaxDiscrepancy on the concatenated stream — at
//     a cost proportional to distinct values, not stream length.
//   - GlobalSample draws a uniform size-k sample of the union stream from
//     the per-shard samples alone via sampler.MergeSamples, the [CTW16]
//     coordinator primitive.
//
// Routing is pluggable (Router: uniform-random, hash-by-value, round-robin)
// and always runs serially on the coordinator, while shard ingest fans out
// across the core worker pool. The determinism contract matches the rest of
// the repository: routing decisions are drawn in element order from the
// coordinator's RNG before the fan-out, per-shard sampler RNGs are split
// sequentially at seeding time, each shard touches only its own state, and
// verdicts merge in shard order — so every result is byte-identical for any
// worker count, and batch ingest is invariant to how the stream is chunked.
package shard

import (
	"robustsample/internal/core"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// Config describes a sharded engine.
type Config struct {
	// Shards is S, the number of shards. It must be >= 1.
	Shards int
	// Router selects the routing mode; nil defaults to Uniform.
	Router Router
	// System is the set system global and per-shard verdicts are computed
	// against. It is required unless NewSampler is nil (a routing-only
	// engine, e.g. experiment E12's query-routing cluster).
	System setsystem.SetSystem
	// NewSampler builds shard i's sampler. It is called once per shard at
	// engine construction; samplers are Reset (never rebuilt) on
	// StartGame. nil gives a routing/recording-only engine with no
	// samplers and no verdicts.
	NewSampler func(shard int) game.Sampler
	// Workers sizes the worker pool for parallel shard ingest: 0 uses all
	// CPUs, 1 runs inline. Results are byte-identical for every value.
	Workers int
	// RecordStreams keeps the full stream and each shard's raw substream
	// in memory (needed by representativeness measurements and the
	// differential tests; verdicts never read them).
	RecordStreams bool
}

// shardState is one shard: a sampler fed from a private RNG stream plus the
// incremental accumulator tracking (substream, local sample) exactly.
type shardState struct {
	sampler game.Sampler
	batch   game.BatchSampler        // non-nil when the sampler supports bulk ingest
	deltas  game.SampleDeltaReporter // non-nil when the sampler reports deltas
	acc     *setsystem.Accumulator
	rng     *rng.RNG
	stream  []int64 // raw substream when Config.RecordStreams
	rounds  int     // substream length (the shard's local population size)
	pending []int64 // elements routed here but not yet ingested
}

// Engine routes one stream across shards and answers global queries by
// merging per-shard state. It is not safe for concurrent use; the
// parallelism is internal (shard ingest).
type Engine struct {
	cfg       Config
	router    Router
	routerRNG *rng.RNG
	shards    []*shardState
	global    *setsystem.Accumulator // scratch for merged verdicts
	stream    []int64                // full routed stream when RecordStreams
	rounds    int
	unionBuf  []int64 // reused by SampleView
	admitBuf  []int   // reused by OfferBatch's per-shard admitted counts
}

// New builds an engine from cfg, seeding it from root when root is non-nil.
// With a nil root the engine must be seeded by StartGame before use (the
// sharded game does this, so per-worker engines can be built once and
// re-seeded per trial).
func New(cfg Config, root *rng.RNG) *Engine {
	if cfg.Shards < 1 {
		panic("shard: need at least 1 shard")
	}
	if cfg.NewSampler != nil && cfg.System == nil {
		panic("shard: samplers need a set system for their accumulators")
	}
	if cfg.Router == nil {
		cfg.Router = Uniform{}
	}
	e := &Engine{cfg: cfg, router: cfg.Router}
	e.shards = make([]*shardState, cfg.Shards)
	for i := range e.shards {
		sh := &shardState{}
		if cfg.NewSampler != nil {
			sh.sampler = cfg.NewSampler(i)
			sh.batch, _ = sh.sampler.(game.BatchSampler)
			sh.deltas, _ = sh.sampler.(game.SampleDeltaReporter)
			sh.acc = cfg.System.NewAccumulator()
		}
		e.shards[i] = sh
	}
	if root != nil {
		e.StartGame(root)
	}
	return e
}

// StartGame resets the engine for a fresh stream and re-seeds its RNG
// streams from r: the coordinator's routing stream first, then one private
// stream per shard, split sequentially in shard order. All subsequent
// behaviour is a deterministic function of r, the routed elements, and the
// configuration — never of the worker count.
func (e *Engine) StartGame(r *rng.RNG) {
	e.routerRNG = r.Split()
	e.router.Reset()
	for _, sh := range e.shards {
		sh.rng = r.Split()
		if sh.sampler != nil {
			sh.sampler.Reset()
			sh.acc.Reset()
		}
		sh.stream = sh.stream[:0]
		sh.rounds = 0
		sh.pending = sh.pending[:0]
	}
	e.stream = e.stream[:0]
	e.rounds = 0
}

// NumShards returns S.
func (e *Engine) NumShards() int { return len(e.shards) }

// Rounds returns the number of elements routed so far.
func (e *Engine) Rounds() int { return e.rounds }

// Offer routes one element and feeds it to its shard's sampler, returning
// the destination shard and whether that shard's sampler admitted the
// element. This is the adaptive path: the caller sees both before choosing
// the next element.
func (e *Engine) Offer(x int64) (shardIdx int, admitted bool) {
	e.rounds++
	si := e.router.Route(x, e.rounds, len(e.shards), e.routerRNG)
	if si < 0 || si >= len(e.shards) {
		panic("shard: router returned out-of-range shard")
	}
	if e.cfg.RecordStreams {
		e.stream = append(e.stream, x)
	}
	return si, e.offerTo(e.shards[si], x)
}

// RouteTo feeds one element to an explicit shard, bypassing the router —
// for callers that produce routing decisions externally (e.g. replaying a
// recorded attack). It returns whether the shard's sampler admitted the
// element.
func (e *Engine) RouteTo(x int64, shardIdx int) bool {
	if shardIdx < 0 || shardIdx >= len(e.shards) {
		panic("shard: shard index out of range")
	}
	e.rounds++
	if e.cfg.RecordStreams {
		e.stream = append(e.stream, x)
	}
	return e.offerTo(e.shards[shardIdx], x)
}

// offerTo is the per-element shard ingest step: substream bookkeeping, one
// sampler Offer, and the accumulator sync from the sampler's delta.
func (e *Engine) offerTo(sh *shardState, x int64) bool {
	sh.rounds++
	if e.cfg.RecordStreams {
		sh.stream = append(sh.stream, x)
	}
	if sh.sampler == nil {
		return false
	}
	admitted := sh.sampler.Offer(x, sh.rng)
	sh.acc.AddStream(x)
	if sh.deltas != nil {
		added, removed := sh.deltas.LastDelta()
		for _, a := range added {
			sh.acc.AddSample(a)
		}
		for _, v := range removed {
			sh.acc.RemoveSample(v)
		}
	}
	return admitted
}

// OfferBatch routes a run of consecutive elements, ingests each shard's
// share in parallel on the core worker pool, and reports how many elements
// entered some shard's sample. Routing decisions are drawn serially in
// element order before the fan-out and each shard mutates only its own
// state, so the result is byte-identical for every worker count — and,
// because the samplers' batch paths and the accumulator are
// chunking-invariant, identical no matter how the stream is sliced across
// OfferBatch calls.
//
//robust:hotpath
func (e *Engine) OfferBatch(xs []int64) int {
	for _, x := range xs {
		e.rounds++
		si := e.router.Route(x, e.rounds, len(e.shards), e.routerRNG)
		if si < 0 || si >= len(e.shards) {
			panic("shard: router returned out-of-range shard")
		}
		e.shards[si].pending = append(e.shards[si].pending, x)
	}
	if e.cfg.RecordStreams {
		e.stream = append(e.stream, xs...)
	}
	if cap(e.admitBuf) < len(e.shards) {
		e.admitBuf = make([]int, len(e.shards))
	}
	admitted := e.admitBuf[:len(e.shards)]
	//robust:alloc one closure per batch for the worker fan-out, amortized over the whole run
	core.ForEachTrial(len(e.shards), e.cfg.Workers, func(i int) {
		admitted[i] = e.flush(e.shards[i])
	})
	total := 0
	for _, n := range admitted {
		total += n
	}
	return total
}

// flush ingests a shard's pending elements through applyShard and reports
// how many were admitted.
func (e *Engine) flush(sh *shardState) int {
	n := e.applyShard(sh, sh.pending)
	sh.pending = sh.pending[:0]
	return n
}

// applyShard is the single-shard ingest step shared by the serial batch
// path and the serving pipeline's consumer goroutines: the bulk path
// (game.IngestBatchSynced — the same batch-delta sync the batched
// continuous game uses, fused pass included) when the sampler supports it,
// the per-element path otherwise. It mutates only sh, so distinct shards
// may be applied concurrently; results are invariant to how the shard's
// routed substream is chunked across calls.
func (e *Engine) applyShard(sh *shardState, xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	if sh.sampler == nil || sh.batch == nil || sh.deltas == nil {
		n := 0
		for _, x := range xs {
			if e.offerTo(sh, x) {
				n++
			}
		}
		return n
	}
	sh.rounds += len(xs)
	if e.cfg.RecordStreams {
		sh.stream = append(sh.stream, xs...)
	}
	return game.IngestBatchSynced(sh.batch, sh.deltas, sh.acc, xs, sh.rng)
}

// Verdict returns the exact global discrepancy of the union stream against
// the union of the per-shard samples, by folding every shard's accumulator
// into one engine via MergeFrom — no raw substream is re-read, so the cost
// is proportional to distinct values, not to traffic since the last
// checkpoint. The result is bit-identical (error AND witness) to
// System.MaxDiscrepancy on the concatenated stream and concatenated shard
// samples, for every routing mode, shard count and worker count.
func (e *Engine) Verdict() setsystem.Discrepancy {
	if e.cfg.NewSampler == nil {
		panic("shard: Verdict requires samplers (routing-only engine)")
	}
	if e.global == nil {
		e.global = e.cfg.System.NewAccumulator()
	}
	e.global.Reset()
	for _, sh := range e.shards {
		e.withSampleSynced(sh, func() { e.global.MergeFrom(sh.acc) })
	}
	return e.global.Max()
}

// ShardVerdict returns shard i's local discrepancy: its substream against
// its own sample. Per-shard and global verdicts answer different questions —
// a shard can be locally representative while the union sample is not (and
// vice versa); the shard experiments report both.
func (e *Engine) ShardVerdict(i int) setsystem.Discrepancy {
	sh := e.shards[i]
	if sh.sampler == nil {
		panic("shard: ShardVerdict requires samplers (routing-only engine)")
	}
	var d setsystem.Discrepancy
	e.withSampleSynced(sh, func() { d = sh.acc.Max() })
	return d
}

// withSampleSynced runs fn with sh.acc's sample side guaranteed to match the
// sampler. Delta-reporting samplers (all in-repo ones) are always in sync;
// for foreign samplers the sample histogram is rebuilt from View around fn.
func (e *Engine) withSampleSynced(sh *shardState, fn func()) {
	if sh.deltas != nil {
		fn()
		return
	}
	view := sh.sampler.View()
	for _, v := range view {
		sh.acc.AddSample(v)
	}
	fn()
	for _, v := range view {
		sh.acc.RemoveSample(v)
	}
}

// SampleView returns the union of the per-shard samples, concatenated in
// shard order into a buffer reused across calls: this is the coordinator's
// view of σ_i for the sharded game's Observation. Callers must not mutate or
// retain it across engine operations.
func (e *Engine) SampleView() []int64 {
	e.unionBuf = e.unionBuf[:0]
	for _, sh := range e.shards {
		if sh.sampler != nil {
			e.unionBuf = append(e.unionBuf, sh.sampler.View()...)
		}
	}
	return e.unionBuf
}

// Sample returns a copy of the union of the per-shard samples, in shard
// order.
func (e *Engine) Sample() []int64 {
	return append([]int64(nil), e.SampleView()...)
}

// SampleLen returns the union sample size.
func (e *Engine) SampleLen() int {
	n := 0
	for _, sh := range e.shards {
		if sh.sampler != nil {
			n += sh.sampler.Len()
		}
	}
	return n
}

// ShardRounds returns the length of shard i's substream.
func (e *Engine) ShardRounds(i int) int { return e.shards[i].rounds }

// Stream returns the full routed stream. It panics unless the engine was
// built with RecordStreams.
func (e *Engine) Stream() []int64 {
	if !e.cfg.RecordStreams {
		panic("shard: Stream requires RecordStreams")
	}
	return e.stream
}

// Substream returns shard i's raw substream. It panics unless the engine
// was built with RecordStreams.
func (e *Engine) Substream(i int) []int64 {
	if !e.cfg.RecordStreams {
		panic("shard: Substream requires RecordStreams")
	}
	return e.shards[i].stream
}

// GlobalSample draws a uniform without-replacement sample of size k of the
// union stream from the per-shard samples alone, by population-weighted
// pairwise merging (sampler.MergeSamples, the [CTW16]/[CMYZ12] coordinator
// primitive). Randomness comes from r, so coordinator queries never perturb
// the shards' sampling streams. If the shards cannot supply k elements the
// result is clamped.
func (e *Engine) GlobalSample(k int, r *rng.RNG) []int64 {
	if e.cfg.NewSampler == nil {
		panic("shard: GlobalSample requires samplers (routing-only engine)")
	}
	views := make([][]int64, len(e.shards))
	pops := make([]int, len(e.shards))
	for i, sh := range e.shards {
		views[i] = sh.sampler.View()
		pops[i] = sh.rounds
	}
	return MergeGlobalSample(views, pops, k, r)
}

// MergeGlobalSample is the coordinator fan-in step of GlobalSample over
// explicit per-shard (sample view, substream length) pairs: a uniform
// without-replacement size-k sample of the union stream, clamped to the
// available elements. The serving runtime calls it on copies taken behind
// its read barriers, so the merge itself runs outside any shard lock. The
// first view is consumed as the running merge's seed and must be mutable
// (pass a copy of a live sampler view).
func MergeGlobalSample(views [][]int64, pops []int, k int, r *rng.RNG) []int64 {
	merged := append([]int64(nil), views[0]...)
	pop := pops[0]
	for i := 1; i < len(views); i++ {
		// Keep the running merge as large as its sources allow so later
		// merges retain enough represented mass.
		want := len(merged) + len(views[i])
		merged = sampler.MergeSamples(merged, pop, views[i], pops[i], want, r)
		pop += pops[i]
	}
	if k > len(merged) {
		k = len(merged)
	}
	r.Shuffle(len(merged), func(i, j int) { merged[i], merged[j] = merged[j], merged[i] })
	return merged[:k]
}
