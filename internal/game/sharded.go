// The sharded continuous game: the Figure-2 loop played against a
// coordinator that routes the adversary's stream across shards. The game
// drives the engine through the ShardedEngine interface (implemented by
// internal/shard) so the game layer stays independent of the shard layer's
// mechanics; everything the verdict needs — merged accumulators, union
// samples — lives behind the interface.
package game

import (
	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
)

// ShardedEngine is the coordinator-side contract RunSharded plays against.
// internal/shard.Engine is the canonical implementation. The engine owns the
// set system, the routing policy, and every shard's sampler and incremental
// accumulator; the game only feeds it elements and asks for verdicts.
//
// Implementations must be deterministic functions of the StartGame seed and
// the offered elements (worker counts and ingest chunking must not matter),
// and Verdict must agree bit-for-bit with the set system's MaxDiscrepancy on
// the concatenated stream against the union sample.
type ShardedEngine interface {
	// StartGame resets all shard state and re-seeds the engine's RNG
	// streams from r.
	StartGame(r *rng.RNG)
	// Offer routes one element adaptively, reporting the destination
	// shard and whether its sampler admitted the element.
	Offer(x int64) (shardIdx int, admitted bool)
	// OfferBatch bulk-routes a run of consecutive elements (the non-adaptive
	// span path; shards may ingest in parallel), reporting how many entered
	// some shard's sample.
	OfferBatch(xs []int64) int
	// Verdict returns the exact global discrepancy of the union stream
	// against the union sample.
	Verdict() setsystem.Discrepancy
	// SampleView returns the union sample as a transient read-only view.
	SampleView() []int64
	// Sample returns a copy of the union sample.
	Sample() []int64
}

// RunSharded plays one continuous adaptive game against a sharded engine —
// the same loop as RunContinuous, with the engine as the player: the
// adversary submits one stream, the engine routes it across shards, and the
// engine's merged Verdict (union stream vs union sample) judges every
// checkpoint. The engine and the adversary receive independent RNG streams
// derived from r in that order, mirroring the unsharded games.
//
// The adversary's Observation carries the coordinator's view: Sample is the
// union of the per-shard samples, LastAdmitted reports whether the previous
// element entered ANY shard's sample, and DeltaKnown is never set (the union
// has no per-round delta). Attacks that need per-shard admission feedback —
// the distributed bisection arm — drive the engine directly; see
// internal/shard.RunTargetedBisectionUnbounded.
//
// When the adversary is a StreamGenerator, the rounds between checkpoints
// collapse into chunked bulk ingest (Engine.OfferBatch in SpanChunkCap-sized
// chunks), letting shards ingest in parallel; verdicts and trajectories are
// unchanged because routing and sampling are chunking-invariant.
func RunSharded(e ShardedEngine, adv Adversary, n int, eps float64, checkpoints []int, r *rng.RNG) ContinuousResult {
	return play(&player{e: e}, adv, n, eps, checkpoints, r)
}
