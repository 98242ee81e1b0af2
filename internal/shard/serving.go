// The serving runtime: Engine.Serve lifts a sharded engine into a
// concurrent ingest pipeline (internal/runtime) where many producer
// goroutines offer elements while per-shard consumers drain them into the
// existing sampler + accumulator batch paths, and coordinator queries —
// Verdict, ShardVerdict, Sample, GlobalSample — run live against
// epoch-stamped read barriers instead of stopping the stream.
//
// Two modes:
//
//   - Live (default): producers route their own elements (per-lane RNG
//     streams for Uniform, the pure hash for HashByValue, an atomic ticket
//     for RoundRobin) and push lock-free into per-shard rings. Maximum
//     throughput; the ingested interleaving is whatever the scheduler made
//     it, so samples are valid but not bit-reproducible.
//   - Deterministic: a router goroutine merges the producer lanes in
//     round-robin order and draws routing decisions serially from the
//     engine's routing RNG — exactly the serial OfferBatch code path — so a
//     stream striped across lanes (lane p takes elements p, p+P, ...)
//     yields byte-identical samples and verdict tables to serial ingest,
//     for every producer count. The differential tests pin this.
//
// Queries lock one shard at a time (Freeze: all of them) only against the
// consumers' bounded apply chunks; the offer hot path never blocks on a
// query. ShardVerdict additionally copies the shard's accumulator behind
// the lock (setsystem.CopyFrom, the read-barrier copy hook) and runs the
// discrepancy scan on the copy outside it.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"robustsample/internal/faults"
	"robustsample/internal/rng"
	"robustsample/internal/runtime"
	"robustsample/internal/setsystem"
)

// ErrServeUnsupported reports an engine Serve cannot run: one that was never
// seeded (StartGame first).
var ErrServeUnsupported = errors.New("shard: engine configuration does not support serving")

// ServeConfig sizes the ingest pipeline.
type ServeConfig struct {
	// Producers is the number of producer lanes; <= 0 selects 1. Each lane
	// is owned by one goroutine at a time.
	Producers int
	// RingSize is the per-ring capacity (backpressure bound); <= 0 selects
	// the runtime default.
	RingSize int
	// ChunkCap caps elements applied per shard-lock hold; <= 0 selects the
	// runtime default.
	ChunkCap int
	// Deterministic selects sequenced routing (see package comment).
	Deterministic bool
	// CheckpointEvery enables crash supervision: each shard snapshots its
	// state (appendShardBlock) roughly every CheckpointEvery applied
	// elements, and a panicking consumer restores the shard from its
	// latest checkpoint instead of killing the process (see health.go for
	// the recovery contract). 0 disables supervision unless Faults is set,
	// in which case the default interval is 4096. Requires a snapshot
	// codec (Serve fails fast otherwise).
	CheckpointEvery int
	// RetryLimit is how many times a failing chunk is retried from the
	// restored checkpoint before being dropped (its elements count as
	// lost); <= 0 selects 2.
	RetryLimit int
	// Faults injects a deterministic, seeded fault plan into the apply
	// path for chaos runs; the plan must have been built for this engine's
	// shard count. Setting it implies supervision.
	Faults *faults.Plan
	// QueryWait bounds how long the degraded reads (VerdictCovered,
	// SampleCovered, GlobalSampleCovered) wait per shard lock before
	// skipping the shard; <= 0 selects 5ms.
	QueryWait time.Duration
}

// Serving is a running concurrent ingest session over an Engine. All its
// methods are safe for concurrent use (Producer lanes by one goroutine
// each); the underlying Engine must not be used directly until Close.
type Serving struct {
	e   *Engine
	pl  *runtime.Pipeline
	sup *supervisor // nil when supervision is off

	qmu     sync.Mutex             // serializes queries (shared scratch accumulators)
	scratch *setsystem.Accumulator // ShardVerdict copy target

	routeMu     sync.Mutex // serializes deterministic routing against Freeze
	startRounds int
	startShard  []int         // per-shard rounds at Serve time (Health resolution without supervision)
	queryWait   time.Duration // degraded reads' per-shard lock wait bound
	liveRound   atomic.Int64  // live RoundRobin ticket

	closeOnce sync.Once     // the first completed drain syncs the engine's counters
	closeEp   runtime.Epoch // that drain's epoch, returned by every later close
}

// Serve starts a concurrent ingest pipeline over the engine. The engine
// must be seeded (StartGame); it must not be touched directly — including
// by its own OfferBatch/Offer/Verdict — until the returned Serving is
// Closed, which drains the pipeline and syncs the engine's counters so
// serial use can resume.
func (e *Engine) Serve(cfg ServeConfig) (*Serving, error) {
	if e.routerRNG == nil {
		return nil, fmt.Errorf("%w: engine is not seeded (StartGame first)", ErrServeUnsupported)
	}
	if cfg.Producers <= 0 {
		cfg.Producers = 1
	}
	if cfg.Faults != nil && cfg.Faults.Shards() != len(e.shards) {
		return nil, fmt.Errorf("shard: fault plan built for %d shards, engine has %d", cfg.Faults.Shards(), len(e.shards))
	}
	if cfg.Faults != nil && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4096
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 2
	}
	if cfg.QueryWait <= 0 {
		cfg.QueryWait = 5 * time.Millisecond
	}
	s := &Serving{e: e, startRounds: e.rounds, queryWait: cfg.QueryWait}
	s.startShard = make([]int, len(e.shards))
	for i, sh := range e.shards {
		s.startShard[i] = sh.rounds
	}
	rcfg := runtime.Config{
		Shards:        len(e.shards),
		Producers:     cfg.Producers,
		RingSize:      cfg.RingSize,
		ChunkCap:      cfg.ChunkCap,
		Deterministic: cfg.Deterministic,
		Apply: func(si int, xs []int64) {
			applyShard(e.shards[si], xs)
		},
	}
	if cfg.CheckpointEvery > 0 {
		sup, err := newSupervisor(e, cfg.Deterministic, cfg.CheckpointEvery, cfg.RetryLimit, cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.sup = sup
		rcfg.Apply = func(si int, xs []int64) { sup.apply(si, xs) }
		rcfg.OnApplyPanic = sup.onPanic
		if sup.plan != nil {
			rcfg.BeforeApply = sup.inject
		}
	}
	if cfg.Deterministic {
		round := e.rounds
		rcfg.RouteSerial = func(x int64) int {
			s.routeMu.Lock()
			round++
			si := e.cfg.Router.Route(x, round, len(e.shards), e.routerRNG)
			s.routeMu.Unlock()
			return si
		}
	} else {
		rcfg.RouteLive = e.liveRouter(s, cfg.Producers)
	}
	pl, err := runtime.Start(rcfg)
	if err != nil {
		return nil, err
	}
	s.pl = pl
	return s, nil
}

// routeBulk is the per-lane bulk-uniform scratch size for run routing.
const routeBulk = 256

// uniformLane is one producer lane's routing state for the Uniform router:
// a private RNG stream plus a bulk-draw scratch, both owned by the lane's
// driving goroutine.
type uniformLane struct {
	r    *rng.RNG
	ubuf [routeBulk]uint64
}

// liveRouter builds the producer-side route for live mode: one function
// per router, routing a run of elements (a single-element offer routes a
// run of one). Each routes without shared mutable state: per-lane RNG
// streams split from the engine's routing stream for Uniform, a pure hash
// for HashByValue, an atomic ticket for RoundRobin.
//
// Each route does a run's worth of work at once: HashByValue hashes in
// unrolled groups of 8 with one bounds check per group, RoundRobin claims
// the run's tickets with one atomic add, and Uniform draws its uniforms in
// bulk (FillUniform64 with the same exact-drain discipline as the
// samplers, so however a lane's stream is split into runs, the lane's RNG
// stream is consumed exactly as per-element Intn calls would).
func (e *Engine) liveRouter(s *Serving, producers int) func(int, []int64, []int) {
	S := len(e.shards)
	switch e.cfg.Router {
	case Uniform:
		lanes := make([]*uniformLane, producers)
		for i := range lanes {
			lanes[i] = &uniformLane{r: e.routerRNG.Split()}
		}
		m := uint64(S)
		thresh := (-m) % m // Lemire rejection threshold, hoisted for the whole session
		//robust:hotpath
		route := func(lane int, _ []int64, dst []int) {
			l := lanes[lane]
			n := len(dst)
			bi, bn := 0, 0
			for i := range dst {
				if bi == bn {
					bn = min(n-i, routeBulk)
					l.r.FillUniform64(l.ubuf[:bn])
					bi = 0
				}
				// Inlined r.Intn: same accept condition and redraw order,
				// uniforms from the scratch (exact-drain: every element
				// consumes at least one).
				hi, lo := bits.Mul64(l.ubuf[bi], m)
				bi++
				for lo < thresh {
					if bi == bn {
						bn = min(n-i, routeBulk)
						l.r.FillUniform64(l.ubuf[:bn])
						bi = 0
					}
					hi, lo = bits.Mul64(l.ubuf[bi], m)
					bi++
				}
				dst[i] = int(hi)
			}
		}
		return route
	case HashByValue:
		//robust:hotpath
		route := func(_ int, xs []int64, dst []int) {
			// The shared 8-wide group-hash lane; its modulo matches
			// Route's exactly, so run destinations are HashByValue.Route's.
			runtime.RouteHashBatch(xs, dst, S)
		}
		return route
	default: // RoundRobin
		//robust:hotpath
		route := func(_ int, _ []int64, dst []int) {
			// One atomic add claims the whole ticket run.
			n := int64(len(dst))
			start := s.liveRound.Add(n) - n
			for i := range dst {
				dst[i] = int((start + int64(i)) % int64(S))
			}
		}
		return route
	}
}

// Producer returns ingest lane i in [0, Config.Producers).
func (s *Serving) Producer(i int) *runtime.Producer { return s.pl.Producer(i) }

// Rounds returns the number of elements accepted so far (offered into the
// pipeline, applied or not).
func (s *Serving) Rounds() int { return s.startRounds + int(s.pl.Offered()) }

// AppliedRounds returns the number of elements currently reflected in shard
// state — what the live queries see. Elements lost to crash recovery
// (rolled back or dropped; see Health) are excluded.
func (s *Serving) AppliedRounds() int {
	return s.startRounds + int(s.pl.Applied()) - int(s.lostRounds())
}

// Flush is the drain barrier: it returns once everything offered before the
// call is applied to shard state, with the epoch stamping the moment.
func (s *Serving) Flush() runtime.Epoch { return s.pl.Flush() }

// Verdict returns the exact discrepancy of the union of the applied
// substreams against the union of the per-shard samples, merging per-shard
// histograms behind each shard's read barrier. It runs concurrently with
// ingest: each shard's (substream, sample) pair is internally consistent,
// with shards cut at slightly different points of the in-flight stream —
// Flush first (or quiesce producers) for a cut covering everything offered.
func (s *Serving) Verdict() setsystem.Discrepancy {
	d, _ := s.e.verdict(s, false)
	return d
}

// ShardVerdict returns shard i's local discrepancy. The shard is locked
// only for a histogram copy (CopyFrom); the discrepancy scan runs on the
// copy, outside the lock, so slow verdicts never stall that shard's ingest.
func (s *Serving) ShardVerdict(i int) setsystem.Discrepancy {
	e := s.e
	sh := e.shards[i]
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.scratch == nil {
		s.scratch = e.cfg.System.NewAccumulator()
	}
	s.pl.WithShard(i, func() { s.scratch.CopyFrom(sh.acc) })
	return s.scratch.Max()
}

// Sample returns a copy of the union of the per-shard samples, in shard
// order, each shard read behind its barrier.
func (s *Serving) Sample() []int64 {
	out, _ := s.e.sample(s, false, nil)
	return out
}

// SampleLen returns the union sample size.
func (s *Serving) SampleLen() int { return s.e.sampleLen(s) }

// ShardRounds returns the applied substream length of shard i.
func (s *Serving) ShardRounds(i int) int {
	n := 0
	s.pl.WithShard(i, func() { n = s.e.shards[i].rounds })
	return n
}

// GlobalSample draws a uniform size-k sample of the union of the applied
// substreams from the per-shard samples alone ([CTW16] fan-in): per-shard
// views and populations are copied behind the read barriers and merged
// outside every lock. The caller owns r (pass a query-side RNG; the public
// layer serializes it).
func (s *Serving) GlobalSample(k int, r *rng.RNG) []int64 {
	out, _ := s.e.globalSample(s, false, k, r)
	return out
}

// Freeze runs fn with every shard lock held and routing paused: a single
// cross-shard-consistent cut of the applied state. Offered-but-unapplied
// elements wait in the rings and are excluded from the cut.
func (s *Serving) Freeze(fn func()) runtime.Epoch {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	return s.pl.Freeze(fn)
}

// AppendState serializes the engine under a freeze (per-shard samplers,
// accumulators and RNG streams, and the routing stream), first syncing the
// engine's round counter to the applied count. For a cut that includes
// everything offered — and, in deterministic mode, a routing-RNG state that
// replays bit-exactly — Flush first and keep producers quiescent across the
// call, the usual checkpoint sequence.
func (s *Serving) AppendState(buf []byte) ([]byte, runtime.Epoch, error) {
	var err error
	out := buf
	ep := s.Freeze(func() {
		s.syncRounds()
		out, err = AppendState(out, s.e)
	})
	return out, ep, err
}

// syncRounds re-derives the engine's coordinator round counter from the
// pipeline's counters, excluding rounds lost to crash recovery so the
// e.rounds == sum(shard rounds) invariant survives rollbacks and drops.
func (s *Serving) syncRounds() {
	s.e.rounds = s.startRounds + int(s.pl.Applied()) - int(s.lostRounds())
}

// Close drains everything offered, stops the pipeline goroutines, and
// syncs the engine's counters; afterwards the engine is safe for direct
// serial use again. It is CloseCtx without a deadline. Producers racing
// with Close get runtime.ErrClosed from their offers; accepted elements
// are never lost.
func (s *Serving) Close() runtime.Epoch {
	ep, _ := s.CloseCtx(context.Background())
	return ep
}

// CloseCtx is Close with a drain deadline: a wedged consumer cannot hang
// shutdown past ctx. On timeout it returns an error matching both
// runtime.ErrDrainTimeout and the ctx error; the drain keeps running in the
// background, the engine's counters are NOT yet synced (the session is
// still draining), and a later Close/CloseCtx waits for the same drain.
// The first close that sees the drain complete syncs the engine's round
// counter once; every close returns that drain's epoch and leaves the
// counters alone afterwards, so serial use resumed after a close is never
// rewound.
func (s *Serving) CloseCtx(ctx context.Context) (runtime.Epoch, error) {
	ep, err := s.pl.CloseCtx(ctx)
	if err != nil {
		return ep, err
	}
	s.closeOnce.Do(func() {
		s.syncRounds()
		s.closeEp = ep
	})
	return s.closeEp, nil
}
