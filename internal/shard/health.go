// The self-healing half of the serving runtime: per-shard crash
// checkpoints, panic supervision with restore-and-rejoin, health reporting,
// and degraded reads that answer from the healthy subset instead of
// blocking behind a wedged shard.
//
// Recovery contract (proved by the chaos tests):
//
//   - Deterministic mode: each shard keeps, besides its latest checkpoint
//     (an appendShardBlock snapshot), a redo journal of every chunk applied
//     since that checkpoint. A crashed shard restores the checkpoint,
//     replays the journal, and retries the failing chunk — the rebuilt
//     state is bit-identical to an uninterrupted run (samplers consume
//     their RNG streams identically on replay), and nothing is lost.
//   - Live mode: no journal; a crashed shard rolls back to its latest
//     checkpoint and the rolled-back rounds are counted as lost — at most
//     one checkpoint interval per crash, reconciled exactly through the
//     round counters (offered == covered + lost after a flush). A chunk
//     that keeps failing past the retry limit is dropped and its elements
//     are counted as lost too (at most ChunkCap more per crash).
//
// Checkpoints are taken under the shard's lock at the apply boundary — the
// per-shard read barrier — so each checkpoint is a consistent cut of that
// shard, at a cost proportional to the sampler + accumulator state size
// (never the stream).
package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"robustsample/internal/faults"
	"robustsample/internal/rng"
	"robustsample/internal/runtime"
	"robustsample/internal/setsystem"
	"robustsample/internal/snapshot"
)

// ShardStatus is one shard's serving state.
type ShardStatus uint8

const (
	// Healthy: the shard is applying normally.
	Healthy ShardStatus = iota
	// Degraded: the shard crashed and is inside its recovery window
	// (restore + retry); it rejoins as Healthy at its next clean apply.
	Degraded
)

func (s ShardStatus) String() string {
	if s == Healthy {
		return "healthy"
	}
	return "degraded"
}

// ShardHealth is one shard's health counters.
type ShardHealth struct {
	// Status is Healthy, or Degraded while the shard is mid-recovery.
	Status ShardStatus
	// Crashes counts apply panics recovered on this shard.
	Crashes uint64
	// Restores counts checkpoint restores performed on this shard.
	Restores uint64
	// Checkpoints counts checkpoints taken (including the baseline).
	Checkpoints uint64
	// LostRounds counts elements lost on this shard: live-mode rollbacks
	// plus elements in chunks dropped after the retry limit.
	LostRounds uint64
	// Rounds is the shard's applied substream length.
	Rounds int
}

// Health is a point-in-time, lock-free view of the serving session: reading
// it never touches a shard lock, so it is always available — including
// while a shard is wedged mid-apply.
type Health struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardHealth
	// Crashes/Restores/Checkpoints/LostRounds aggregate the per-shard
	// counters.
	Crashes     uint64
	Restores    uint64
	Checkpoints uint64
	LostRounds  uint64
	// Supervised reports whether crash recovery is active (CheckpointEvery
	// or a fault plan was configured on Serve).
	Supervised bool
}

// Degraded reports whether any shard is currently mid-recovery.
func (h Health) Degraded() bool {
	for _, sh := range h.Shards {
		if sh.Status != Healthy {
			return true
		}
	}
	return false
}

// Coverage reports what a degraded read actually answered over: which
// shards were included within the query's wait bound, and the rounds
// covered versus routed. A complete coverage after a flush has Covered ==
// Routed - lost rounds.
type Coverage struct {
	// Shards is the total shard count.
	Shards int
	// Included is how many shards answered within the wait bound.
	Included int
	// Stalled lists the shards skipped because their lock could not be
	// taken in time (a consumer wedged mid-apply), in shard order.
	Stalled []int
	// Covered is the sum of the included shards' applied substream
	// lengths — the rounds the answer actually reflects.
	Covered int
	// Routed is the session's accepted round count at query time
	// (everything offered, applied or not), read after the shards are
	// walked so that Covered <= Routed.
	Routed int
}

// Complete reports whether every shard was included.
func (c Coverage) Complete() bool { return c.Included == c.Shards }

// supShard is one shard's supervision state. The atomic counters feed the
// lock-free Health view; everything else is touched only under the shard's
// lock (apply, checkpoint, restore all run there).
type supShard struct {
	status      atomic.Uint32
	crashes     atomic.Uint64
	restores    atomic.Uint64
	checkpoints atomic.Uint64
	lost        atomic.Uint64 // live-mode rollback losses (dropped chunks are counted by the pipeline)
	rounds      atomic.Int64  // mirror of shardState.rounds for lock-free Health

	ckpt       []byte    // latest checkpoint (appendShardBlock bytes)
	ckptRounds int       // shard rounds at that checkpoint
	sinceCkpt  int       // elements applied since
	journal    [][]int64 // deterministic mode: chunks applied since the checkpoint
}

// supervisor is the serving session's crash-recovery state: it owns the
// pipeline's BeforeApply/OnApplyPanic hooks and the supervised Apply path.
type supervisor struct {
	e          *Engine
	det        bool
	every      int
	retryLimit int
	plan       *faults.Plan // nil when no fault injection
	shards     []*supShard
}

// newSupervisor takes the baseline checkpoint of every shard (failing fast
// for configurations with no snapshot codec) before any consumer runs.
func newSupervisor(e *Engine, det bool, every, retryLimit int, plan *faults.Plan) (*supervisor, error) {
	sup := &supervisor{e: e, det: det, every: every, retryLimit: retryLimit, plan: plan}
	sup.shards = make([]*supShard, len(e.shards))
	for i, sh := range e.shards {
		ss := &supShard{}
		buf, err := appendShardBlock(nil, sh)
		if err != nil {
			return nil, fmt.Errorf("shard: cannot supervise: %w", err)
		}
		ss.ckpt = buf
		ss.ckptRounds = sh.rounds
		ss.rounds.Store(int64(sh.rounds))
		ss.checkpoints.Store(1)
		sup.shards[i] = ss
	}
	return sup, nil
}

// inject is the pipeline's BeforeApply hook: it asks the fault plan for
// this (shard, attempt)'s decision and acts it out — panic, sleep, or
// in-place corruption (the pipeline restores the pristine chunk before
// retries, so corruption never outlives the attempt it was injected into).
func (sup *supervisor) inject(si, attempt int, xs []int64) {
	switch d := sup.plan.Decide(si, attempt); d.Op {
	case faults.Crash:
		panic(faults.ErrInjectedCrash)
	case faults.Stall, faults.Delay:
		time.Sleep(d.Sleep)
	case faults.Corrupt, faults.HardCorrupt:
		faults.PoisonChunk(xs)
	}
}

// apply is the supervised Apply path, run under the shard's lock: validate
// (fault plans can poison chunks), ingest, journal (deterministic mode),
// and checkpoint when the interval fills. A clean apply also completes a
// recovery: the shard rejoins as Healthy.
func (sup *supervisor) apply(si int, xs []int64) {
	sh := sup.e.shards[si]
	ss := sup.shards[si]
	if sup.plan != nil && faults.Poisoned(xs) {
		panic(faults.ErrPoisonedBatch)
	}
	applyShard(sh, xs)
	if sup.det {
		ss.journal = append(ss.journal, append([]int64(nil), xs...))
	}
	ss.rounds.Store(int64(sh.rounds))
	ss.sinceCkpt += len(xs)
	if ss.sinceCkpt >= sup.every {
		sup.checkpoint(si)
	}
	if ss.status.Load() != uint32(Healthy) {
		ss.status.Store(uint32(Healthy))
	}
}

// checkpoint snapshots shard si in place (under its held lock) and resets
// the interval and journal.
func (sup *supervisor) checkpoint(si int) {
	sh := sup.e.shards[si]
	ss := sup.shards[si]
	buf, err := appendShardBlock(ss.ckpt[:0], sh)
	if err != nil {
		// Unreachable after the baseline proved the codec (serving keeps
		// pending empty); keep the previous checkpoint and retry at the
		// next interval rather than wedging the consumer.
		ss.sinceCkpt = 0
		return
	}
	ss.ckpt = buf
	ss.ckptRounds = sh.rounds
	ss.sinceCkpt = 0
	ss.journal = ss.journal[:0]
	ss.checkpoints.Add(1)
}

// onPanic is the pipeline's OnApplyPanic hook: mark the shard Degraded,
// restore it from its latest checkpoint (replaying the journal in
// deterministic mode), and retry the chunk until the retry limit, then drop
// it. Runs under the shard's lock.
func (sup *supervisor) onPanic(si int, v any, xs []int64, attempt int) runtime.Disposition {
	ss := sup.shards[si]
	ss.status.Store(uint32(Degraded))
	ss.crashes.Add(1)
	sup.restore(si)
	if attempt >= sup.retryLimit {
		return runtime.Drop // the pipeline counts the chunk's elements as lost
	}
	return runtime.Retry
}

// restore rewinds shard si to its latest checkpoint. Deterministic mode
// then replays the redo journal, rebuilding the pre-crash state bit for bit
// (zero loss); live mode counts the rolled-back rounds as lost.
func (sup *supervisor) restore(si int) {
	sh := sup.e.shards[si]
	ss := sup.shards[si]
	pre := sh.rounds
	if err := loadShardBlock(snapshot.NewReader(ss.ckpt), sh); err != nil {
		// The checkpoint bytes are ours and immutable; failing to reload
		// them means memory corruption — propagate (the supervisor's own
		// panic is not recovered, by design).
		panic(fmt.Sprintf("shard: checkpoint restore failed: %v", err))
	}
	ss.restores.Add(1)
	ss.sinceCkpt = 0
	if sup.det {
		for _, chunk := range ss.journal {
			applyShard(sh, chunk)
			ss.sinceCkpt += len(chunk)
		}
	} else if lost := pre - sh.rounds; lost > 0 {
		ss.lost.Add(uint64(lost))
	}
	ss.rounds.Store(int64(sh.rounds))
}

// lostRounds returns the session's total lost elements: live-mode rollbacks
// plus chunks dropped by the pipeline after the retry limit.
func (s *Serving) lostRounds() uint64 {
	n := s.pl.Lost()
	if s.sup != nil {
		for _, ss := range s.sup.shards {
			n += ss.lost.Load()
		}
	}
	return n
}

// Health returns the session's health report without taking any lock: it
// is built entirely from atomic counters, so it answers even while a shard
// consumer is wedged mid-apply holding its shard lock.
func (s *Serving) Health() Health {
	h := Health{Shards: make([]ShardHealth, len(s.e.shards)), Supervised: s.sup != nil}
	for i := range h.Shards {
		var sh ShardHealth
		if s.sup != nil {
			ss := s.sup.shards[i]
			sh = ShardHealth{
				Status:      ShardStatus(ss.status.Load()),
				Crashes:     ss.crashes.Load(),
				Restores:    ss.restores.Load(),
				Checkpoints: ss.checkpoints.Load(),
				LostRounds:  ss.lost.Load(),
				Rounds:      int(ss.rounds.Load()),
			}
		} else {
			sh = ShardHealth{Rounds: s.startShard[i] + int(s.pl.ShardApplied(i))}
		}
		sh.LostRounds += s.pl.ShardLost(i)
		h.Shards[i] = sh
		h.Crashes += sh.Crashes
		h.Restores += sh.Restores
		h.Checkpoints += sh.Checkpoints
		h.LostRounds += sh.LostRounds
	}
	return h
}

// VerdictCovered is Verdict with graceful degradation: shards whose lock
// cannot be taken within the session's QueryWait (a consumer wedged
// mid-apply) are skipped instead of blocked on, and the verdict is the
// exact discrepancy over the covered subset — each included shard's
// (substream, sample) pair is still internally consistent, which is what
// the [CTW16] merged read path needs. The coverage report says exactly
// what the answer reflects.
func (s *Serving) VerdictCovered() (setsystem.Discrepancy, Coverage) {
	return s.e.verdict(s, true)
}

// SampleCovered is Sample with graceful degradation: the union sample over
// the shards reachable within QueryWait, with the coverage report.
func (s *Serving) SampleCovered() ([]int64, Coverage) {
	return s.e.sample(s, true, nil)
}

// GlobalSampleCovered is GlobalSample with graceful degradation: a uniform
// size-k sample of the union of the covered substreams ([CTW16] fan-in over
// the healthy subset); empty when no shard answered. The caller owns r.
func (s *Serving) GlobalSampleCovered(k int, r *rng.RNG) ([]int64, Coverage) {
	return s.e.globalSample(s, true, k, r)
}
