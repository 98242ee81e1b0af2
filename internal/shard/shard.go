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
// The engine has one shape: S samplers with their accumulators, behind one
// of three routers (Router: uniform-random, hash-by-value, round-robin).
// Routing always runs serially on the coordinator, while shard ingest fans
// out across the core worker pool. The determinism contract matches the
// rest of the repository: routing decisions are drawn in element order from
// the coordinator's RNG before the fan-out, per-shard sampler RNGs are split
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
	// Router selects the routing mode; the zero value is Uniform.
	Router Router
	// System is the set system global and per-shard verdicts are computed
	// against. It is required.
	System setsystem.SetSystem
	// NewSampler builds shard i's sampler, which must also implement
	// game.BatchSampler. It is required (New panics otherwise) and is
	// called once per shard at engine construction; samplers are Reset
	// (never rebuilt) on StartGame.
	NewSampler func(shard int) game.Sampler
	// Workers sizes the worker pool for parallel shard ingest: 0 uses all
	// CPUs, 1 runs inline. Results are byte-identical for every value.
	Workers int
}

// shardSampler is what a shard needs of its sampler: a game.Sampler, whose
// LastDelta keeps the accumulator's sample side exact, with bulk ingest.
// Reservoir, ReservoirL and Bernoulli — every sampler the repository
// shards — provide both.
type shardSampler interface {
	game.Sampler
	game.BatchSampler
}

// shardState is one shard: a sampler fed from a private RNG stream plus the
// incremental accumulator tracking (substream, local sample) exactly.
type shardState struct {
	sampler shardSampler
	acc     *setsystem.Accumulator
	rng     *rng.RNG
	rounds  int     // substream length (the shard's local population size)
	pending []int64 // elements routed here but not yet ingested
}

// Engine routes one stream across shards and answers global queries by
// merging per-shard state. It is not safe for concurrent use; the
// parallelism is internal (shard ingest).
type Engine struct {
	cfg       Config
	routerRNG *rng.RNG
	shards    []*shardState
	global    *setsystem.Accumulator // scratch for merged verdicts
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
	if cfg.NewSampler == nil || cfg.System == nil {
		panic("shard: need a sampler and a set system for its accumulator")
	}
	if cfg.Router > RoundRobin {
		panic("shard: unknown router")
	}
	e := &Engine{cfg: cfg}
	e.shards = make([]*shardState, cfg.Shards)
	for i := range e.shards {
		smp, ok := cfg.NewSampler(i).(shardSampler)
		if !ok {
			panic("shard: samplers must implement OfferBatch")
		}
		e.shards[i] = &shardState{sampler: smp, acc: cfg.System.NewAccumulator()}
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
	for _, sh := range e.shards {
		sh.rng = r.Split()
		sh.sampler.Reset()
		sh.acc.Reset()
		sh.rounds = 0
		sh.pending = sh.pending[:0]
	}
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
	si := e.cfg.Router.Route(x, e.rounds, len(e.shards), e.routerRNG)
	return si, offerTo(e.shards[si], x)
}

// offerTo is the per-element shard ingest step: substream bookkeeping, one
// sampler Offer, and the accumulator sync from the sampler's delta.
func offerTo(sh *shardState, x int64) bool {
	sh.rounds++
	admitted := sh.sampler.Offer(x, sh.rng)
	sh.acc.AddStream(x)
	added, removed := sh.sampler.LastDelta()
	for _, a := range added {
		sh.acc.AddSample(a)
	}
	for _, v := range removed {
		sh.acc.RemoveSample(v)
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
		si := e.cfg.Router.Route(x, e.rounds, len(e.shards), e.routerRNG)
		e.shards[si].pending = append(e.shards[si].pending, x)
	}
	if cap(e.admitBuf) < len(e.shards) {
		e.admitBuf = make([]int, len(e.shards))
	}
	admitted := e.admitBuf[:len(e.shards)]
	//robust:alloc one closure per batch for the worker fan-out, amortized over the whole run
	core.ForEachTrial(len(e.shards), e.cfg.Workers, func(i int) {
		admitted[i] = flush(e.shards[i])
	})
	total := 0
	for _, n := range admitted {
		total += n
	}
	return total
}

// flush ingests a shard's pending elements through applyShard and reports
// how many were admitted.
func flush(sh *shardState) int {
	n := applyShard(sh, sh.pending)
	sh.pending = sh.pending[:0]
	return n
}

// applyShard is the single-shard ingest step shared by the serial batch
// path and the serving pipeline's consumer goroutines: substream
// bookkeeping, then the bulk path (game.IngestBatchSynced — the same
// batch-delta sync the batched continuous game uses, fused pass included).
// It mutates only sh, so distinct shards may be applied concurrently;
// results are invariant to how the shard's routed substream is chunked
// across calls.
func applyShard(sh *shardState, xs []int64) int {
	sh.rounds += len(xs)
	if len(xs) == 0 {
		return 0
	}
	return game.IngestBatchSynced(sh.sampler, sh.sampler, sh.acc, xs, sh.rng)
}

// walk is the one shard walk behind every merged read: it visits the
// shards in order, runs fn on each shard it enters, and reports what it
// covered. A serial engine (s == nil) enters every shard directly. A
// serving session enters each shard under its lock — blocking, or for the
// degraded reads (bounded) only if the lock frees within QueryWait,
// skipping the shard otherwise.
func (e *Engine) walk(s *Serving, bounded bool, fn func(sh *shardState)) Coverage {
	cov := Coverage{Shards: len(e.shards)}
	for i, sh := range e.shards {
		visit := func() {
			fn(sh)
			cov.Covered += sh.rounds
		}
		switch {
		case s == nil:
			visit()
		case !bounded:
			s.pl.WithShard(i, visit)
		case !s.pl.TryWithShard(i, s.queryWait, visit):
			cov.Stalled = append(cov.Stalled, i)
			continue
		}
		cov.Included++
	}
	if s != nil {
		// Routed is read after the walk: producers keep offering while it
		// runs, and a round is counted as offered before any shard applies
		// it, so only a later read keeps Covered <= Routed.
		cov.Routed = s.Rounds()
	}
	return cov
}

// verdict is Verdict over a walk: the exact discrepancy of the entered
// shards' substreams against their samples, merged into e.global. A
// serving session serializes it on its query lock (e.global is shared
// scratch).
func (e *Engine) verdict(s *Serving, bounded bool) (setsystem.Discrepancy, Coverage) {
	if s != nil {
		s.qmu.Lock()
		defer s.qmu.Unlock()
	}
	if e.global == nil {
		e.global = e.cfg.System.NewAccumulator()
	}
	e.global.Reset()
	cov := e.walk(s, bounded, func(sh *shardState) { e.global.MergeFrom(sh.acc) })
	return e.global.Max(), cov
}

// sample is Sample over a walk: the entered shards' samples appended to
// out in shard order.
func (e *Engine) sample(s *Serving, bounded bool, out []int64) ([]int64, Coverage) {
	cov := e.walk(s, bounded, func(sh *shardState) { out = append(out, sh.sampler.View()...) })
	return out, cov
}

// sampleLen is SampleLen over a walk.
func (e *Engine) sampleLen(s *Serving) int {
	n := 0
	e.walk(s, false, func(sh *shardState) { n += sh.sampler.Len() })
	return n
}

// globalSample is GlobalSample over a walk: a uniform size-k sample of the
// entered shards' union substream from their samples alone. A serving
// session copies each view behind the barrier, because consumers keep
// applying once the lock drops; the merge runs outside every lock.
func (e *Engine) globalSample(s *Serving, bounded bool, k int, r *rng.RNG) ([]int64, Coverage) {
	views := make([][]int64, 0, len(e.shards))
	pops := make([]int, 0, len(e.shards))
	cov := e.walk(s, bounded, func(sh *shardState) {
		view := sh.sampler.View()
		if s != nil {
			view = append([]int64(nil), view...)
		}
		views = append(views, view)
		pops = append(pops, sh.rounds)
	})
	return MergeGlobalSample(views, pops, k, r), cov
}

// Verdict returns the exact global discrepancy of the union stream against
// the union of the per-shard samples, by folding every shard's accumulator
// into one engine via MergeFrom — no raw substream is re-read, so the cost
// is proportional to distinct values, not to traffic since the last
// checkpoint. The result is bit-identical (error AND witness) to
// System.MaxDiscrepancy on the concatenated stream and concatenated shard
// samples, for every routing mode, shard count and worker count.
func (e *Engine) Verdict() setsystem.Discrepancy {
	d, _ := e.verdict(nil, false)
	return d
}

// ShardVerdict returns shard i's local discrepancy: its substream against
// its own sample. Per-shard and global verdicts answer different questions —
// a shard can be locally representative while the union sample is not (and
// vice versa); the shard experiments report both.
func (e *Engine) ShardVerdict(i int) setsystem.Discrepancy { return e.shards[i].acc.Max() }

// SampleView returns the union of the per-shard samples, concatenated in
// shard order into a buffer reused across calls: this is the coordinator's
// view of σ_i for the sharded game's Observation. Callers must not mutate or
// retain it across engine operations.
func (e *Engine) SampleView() []int64 {
	e.unionBuf, _ = e.sample(nil, false, e.unionBuf[:0])
	return e.unionBuf
}

// Sample returns a copy of the union of the per-shard samples, in shard
// order.
func (e *Engine) Sample() []int64 {
	return append([]int64(nil), e.SampleView()...)
}

// SampleLen returns the union sample size.
func (e *Engine) SampleLen() int { return e.sampleLen(nil) }

// ShardRounds returns the length of shard i's substream.
func (e *Engine) ShardRounds(i int) int { return e.shards[i].rounds }

// GlobalSample draws a uniform without-replacement sample of size k of the
// union stream from the per-shard samples alone, by population-weighted
// pairwise merging (sampler.MergeSamples, the [CTW16]/[CMYZ12] coordinator
// primitive). Randomness comes from r, so coordinator queries never perturb
// the shards' sampling streams. If the shards cannot supply k elements the
// result is clamped.
func (e *Engine) GlobalSample(k int, r *rng.RNG) []int64 {
	out, _ := e.globalSample(nil, false, k, r)
	return out
}

// MergeGlobalSample is the coordinator fan-in step of GlobalSample over
// explicit per-shard (sample view, substream length) pairs: a uniform
// without-replacement size-k sample of the union stream, clamped to the
// available elements. It never mutates the views (the running merge starts
// from a copy of the first, and MergeSamples only reads its inputs). With
// no views — a degraded read that reached no shard — it returns an empty
// sample and draws nothing from r.
func MergeGlobalSample(views [][]int64, pops []int, k int, r *rng.RNG) []int64 {
	if len(views) == 0 {
		return nil
	}
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
