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

import ishard "robustsample/internal/shard"

// ShardStatus is one shard's recovery state: Healthy, or Degraded while
// the shard has been restored from its latest checkpoint but has not yet
// completed a clean apply.
type ShardStatus = ishard.ShardStatus

const (
	// Healthy means the shard is applying normally.
	Healthy = ishard.Healthy
	// Degraded means the shard is mid-recovery.
	Degraded = ishard.Degraded
)

// ShardHealth is one shard's health entry: its status plus crash, restore,
// checkpoint and lost-round counters and its applied substream length.
type ShardHealth = ishard.ShardHealth

// Health is a point-in-time view of the serving session built entirely
// from atomic counters: reading it never touches a shard lock, so it is
// always available, including while a shard consumer is wedged mid-apply.
// Supervised reports whether crash recovery is active
// (PipelineConfig.CheckpointEvery > 0).
type Health = ishard.Health

// Coverage reports what a degraded read actually answered over: which
// shards were reachable within the query's wait bound (Included, Stalled),
// and the rounds the answer reflects (Covered) versus the rounds the
// session has accepted (Routed).
type Coverage = ishard.Coverage

// Health returns the session's health report without taking any lock.
func (s *Serving[T]) Health() Health { return s.inner.Health() }

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
	return v, cov, err
}

// SampleCovered is Sample with graceful degradation: the union sample over
// the shards reachable within QueryWait, with the coverage report.
func (s *Serving[T]) SampleCovered() ([]T, Coverage, error) {
	ps, cov := s.inner.SampleCovered()
	out, err := s.e.decode(ps)
	return out, cov, err
}

// GlobalSampleCovered is GlobalSample with graceful degradation: a uniform
// size-k sample of the union of the covered substreams ([CTW16] fan-in
// over the healthy subset), with the coverage report. When no shard
// answers within QueryWait the sample is empty.
func (s *Serving[T]) GlobalSampleCovered(k int) ([]T, Coverage, error) {
	if k < 1 {
		return nil, Coverage{}, ErrBadSample
	}
	s.qmu.Lock()
	ps, cov := s.inner.GlobalSampleCovered(k, s.e.coordRNG)
	s.qmu.Unlock()
	out, err := s.e.decode(ps)
	return out, cov, err
}
