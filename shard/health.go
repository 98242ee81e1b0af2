// Public health and degraded-read surface of the serving session: the
// lock-free Health report, the per-query Coverage report, and the covered
// query variants that answer over the healthy subset of shards instead of
// blocking behind a wedged consumer. See the internal package's failure
// model: supervision (PipelineConfig.CheckpointEvery) checkpoints each
// shard periodically and restores it after a consumer panic; deterministic
// sessions replay their redo journal and lose nothing, live sessions lose
// at most one checkpoint interval per crash, reconciled in the round
// counters.
package shard

import (
	"context"

	"robustsample/internal/runtime"
	ishard "robustsample/internal/shard"
)

// ShardStatus is one shard's recovery state.
type ShardStatus int

const (
	// Healthy means the shard is applying normally.
	Healthy ShardStatus = iota
	// Degraded means the shard crashed and has been restored from its
	// latest checkpoint but has not yet completed a clean apply.
	Degraded
)

func (s ShardStatus) String() string {
	if s == Healthy {
		return "healthy"
	}
	return "degraded"
}

// ShardHealth is one shard's health entry.
type ShardHealth struct {
	// Status is the shard's current recovery state.
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

// Health is a point-in-time view of the serving session built entirely
// from atomic counters: reading it never touches a shard lock, so it is
// always available, including while a shard consumer is wedged mid-apply.
type Health struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardHealth
	// Crashes, Restores, Checkpoints and LostRounds aggregate the
	// per-shard counters.
	Crashes     uint64
	Restores    uint64
	Checkpoints uint64
	LostRounds  uint64
	// Supervised reports whether crash recovery is active
	// (PipelineConfig.CheckpointEvery > 0).
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
// shards were reachable within the query's wait bound, and the rounds the
// answer reflects versus the rounds the session has accepted.
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

func fromInnerStatus(s ishard.ShardStatus) ShardStatus {
	if s == ishard.Healthy {
		return Healthy
	}
	return Degraded
}

func fromInnerHealth(h ishard.Health) Health {
	out := Health{
		Shards:      make([]ShardHealth, len(h.Shards)),
		Crashes:     h.Crashes,
		Restores:    h.Restores,
		Checkpoints: h.Checkpoints,
		LostRounds:  h.LostRounds,
		Supervised:  h.Supervised,
	}
	for i, sh := range h.Shards {
		out.Shards[i] = ShardHealth{
			Status:      fromInnerStatus(sh.Status),
			Crashes:     sh.Crashes,
			Restores:    sh.Restores,
			Checkpoints: sh.Checkpoints,
			LostRounds:  sh.LostRounds,
			Rounds:      sh.Rounds,
		}
	}
	return out
}

func fromInnerCoverage(c ishard.Coverage) Coverage {
	return Coverage{
		Shards:   c.Shards,
		Included: c.Included,
		Stalled:  append([]int(nil), c.Stalled...),
		Covered:  c.Covered,
		Routed:   c.Routed,
	}
}

// Health returns the session's health report without taking any lock.
func (s *Serving[T]) Health() Health { return fromInnerHealth(s.inner.Health()) }

// VerdictCovered is Verdict with graceful degradation: shards whose lock
// cannot be taken within the session's QueryWait (a consumer wedged
// mid-apply) are skipped instead of blocked on, and the verdict is the
// exact discrepancy over the covered subset — each included shard's
// (substream, sample) pair is still internally consistent, which is what
// the [CTW16] merged read path needs. The coverage report says exactly
// what the answer reflects.
func (s *Serving[T]) VerdictCovered() (Verdict[T], Coverage, error) {
	d, cov := s.inner.VerdictCovered()
	v, err := s.e.decodeVerdict(d)
	return v, fromInnerCoverage(cov), err
}

// SampleCovered is Sample with graceful degradation: the union sample over
// the shards reachable within QueryWait, with the coverage report.
func (s *Serving[T]) SampleCovered() ([]T, Coverage, error) {
	ps, cov := s.inner.SampleCovered()
	out := make([]T, len(ps))
	for i, p := range ps {
		x, err := s.e.u.Decode(p)
		if err != nil {
			return nil, fromInnerCoverage(cov), err
		}
		out[i] = x
	}
	return out, fromInnerCoverage(cov), nil
}

// GlobalSampleCovered is GlobalSample with graceful degradation: a uniform
// size-k sample of the union of the covered substreams ([CTW16] fan-in
// over the healthy subset), with the coverage report.
func (s *Serving[T]) GlobalSampleCovered(k int) ([]T, Coverage, error) {
	if k < 1 {
		return nil, Coverage{}, ErrBadSample
	}
	s.qmu.Lock()
	ps, cov := s.inner.GlobalSampleCovered(k, s.e.coordRNG)
	s.qmu.Unlock()
	out := make([]T, len(ps))
	for i, p := range ps {
		x, err := s.e.u.Decode(p)
		if err != nil {
			return nil, fromInnerCoverage(cov), err
		}
		out[i] = x
	}
	return out, fromInnerCoverage(cov), nil
}

// CloseContext is Close with a drain deadline: it starts the shutdown
// drain and waits for it until ctx is done. On timeout it returns an error
// matching both ErrDrainTimeout and the ctx error; the drain keeps running
// in the background — the session is NOT closed, and a later Close or
// CloseContext waits for the same drain. Producers wedged on a full ring
// unblock as consumers keep applying.
func (s *Serving[T]) CloseContext(ctx context.Context) (Epoch, error) {
	ep, err := s.inner.CloseCtx(ctx)
	if err != nil {
		return fromRuntimeEpoch(ep), err
	}
	s.once.Do(func() {
		s.closeEp = runtime.Epoch{Seq: ep.Seq, Applied: ep.Applied}
		s.e.srv.Store(nil)
		close(s.done)
	})
	return fromRuntimeEpoch(s.closeEp), nil
}
