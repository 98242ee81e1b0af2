// Engine-to-engine merge: the [CTW16] coordinator fan-in lifted to whole
// sharded engines, so two engines that sampled disjoint streams (e.g. two
// processes, later fanned in) collapse into one whose verdicts and samples
// describe the union traffic. Shard i of the donor merges into shard i of
// the receiver: samplers merge by their type's lossless law (uniform
// population-weighted interleave for reservoirs, union for Bernoulli) and
// accumulators merge histograms via setsystem.MergeFrom, with the sample
// side re-pointed at the merged sample so subsequent verdicts stay exact.
package shard

import (
	"errors"
	"fmt"

	"robustsample/internal/sampler"
)

// Merge error sentinels, surfaced (wrapped) by the public shard package.
var (
	// ErrMergeShape reports engines whose shard structure cannot merge.
	ErrMergeShape = errors.New("shard: engines have incompatible shard structure")
	// ErrMergeSampler reports a per-shard sampler pair with no lossless
	// merge law (mismatched types, or Algorithm L's skip state).
	ErrMergeSampler = errors.New("shard: shard samplers do not support merging")
	// ErrMergeUnderfull reports a reservoir merge whose two samples cannot
	// supply the merged sample size (the donor was undersized for its
	// stream, so a lossless merge law does not exist).
	ErrMergeUnderfull = errors.New("shard: shard samples cannot supply the merged reservoir")
)

// MergeFromEngine folds other's complete state into e, shard by shard:
// afterwards e's union sample and merged verdicts describe the
// concatenation of both engines' routed streams. other is not modified.
// Randomness for the reservoir interleave comes from the receiver's
// per-shard RNG streams, so merging is deterministic given the receiver's
// seed. On error the receiver may be partially merged (the public surface
// validates configurations up front, making the checks here invariants).
func (e *Engine) MergeFromEngine(other *Engine) error {
	if len(e.shards) != len(other.shards) {
		return fmt.Errorf("%w: %d vs %d shards", ErrMergeShape, len(e.shards), len(other.shards))
	}
	for i, sh := range e.shards {
		if err := e.mergeShard(sh, other.shards[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	e.rounds += other.rounds
	return nil
}

// mergeShard merges one donor shard into its receiver: sampler by the
// type's lossless law, accumulator by histogram fold plus a sample-side
// rewrite from (receiver sample + donor sample) to the merged sample.
func (e *Engine) mergeShard(sh, od *shardState) error {
	switch a := sh.sampler.(type) {
	case *sampler.Reservoir[int64]:
		b, ok := od.sampler.(*sampler.Reservoir[int64])
		if !ok {
			return fmt.Errorf("%w: %T vs %T", ErrMergeSampler, sh.sampler, od.sampler)
		}
		rounds := a.Rounds() + b.Rounds()
		k := min(a.K, rounds)
		if a.Len()+b.Len() < k {
			return fmt.Errorf("%w: %d+%d elements for size %d", ErrMergeUnderfull, a.Len(), b.Len(), k)
		}
		oldView := append([]int64(nil), a.View()...)
		merged := sampler.MergeSamples(oldView, a.Rounds(), b.View(), b.Rounds(), k, sh.rng)
		// Histogram fold: stream side becomes the union; the sample side
		// (now receiver sample + donor sample) is rewritten to the merged
		// sample.
		sh.acc.MergeFrom(od.acc)
		for _, v := range oldView {
			sh.acc.RemoveSample(v)
		}
		for _, v := range b.View() {
			sh.acc.RemoveSample(v)
		}
		for _, v := range merged {
			sh.acc.AddSample(v)
		}
		a.SetMergedState(merged, rounds, a.TotalAdmitted()+b.TotalAdmitted())
	case *sampler.Bernoulli[int64]:
		b, ok := od.sampler.(*sampler.Bernoulli[int64])
		if !ok {
			return fmt.Errorf("%w: %T vs %T", ErrMergeSampler, sh.sampler, od.sampler)
		}
		if a.P != b.P {
			return fmt.Errorf("%w: Bernoulli rates %v vs %v", ErrMergeSampler, a.P, b.P)
		}
		// The union of two Bernoulli(p) samples over disjoint streams is a
		// Bernoulli(p) sample of the concatenation, and the histogram fold
		// already produces exactly that union on the sample side.
		merged := append(append([]int64(nil), a.View()...), b.View()...)
		sh.acc.MergeFrom(od.acc)
		a.SetMergedState(merged, a.Rounds()+b.Rounds())
	default:
		return fmt.Errorf("%w: %T", ErrMergeSampler, sh.sampler)
	}
	sh.rounds += od.rounds
	return nil
}
