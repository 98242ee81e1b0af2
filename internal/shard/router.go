package shard

import "robustsample/internal/rng"

// Router selects which shard receives each element of the routed stream.
// The set is closed: Uniform (the zero value), HashByValue and RoundRobin.
// Uniform draws only from the RNG the engine passes (the coordinator's
// routing stream); the other two ignore it. None keeps state of its own, and
// routing always happens serially in element order on the coordinator.
type Router uint8

const (
	// Uniform routes each element to an independently uniform shard — the
	// load-balancing model of the paper's Section 1.2 distributed-database
	// illustration, where each shard's substream is a Bernoulli(1/S) sample
	// of the full stream.
	Uniform Router = iota
	// HashByValue routes deterministically by a multiplicative hash of the
	// element value, so equal values always land on the same shard (the
	// partitioning used by sharded aggregation systems). An adaptive client
	// that knows the hash can steer traffic to one shard, which is exactly
	// the scenario the targeted-attack experiments probe.
	HashByValue
	// RoundRobin routes element i to shard (i-1) mod S — the deterministic
	// even-load baseline. Unlike Uniform it leaks no randomness to the
	// adversary, and unlike HashByValue it cannot be steered by value
	// choice.
	RoundRobin
)

var routerNames = [...]string{Uniform: "uniform", HashByValue: "hash", RoundRobin: "round-robin"}

// Name identifies the routing mode in experiment tables.
func (rt Router) Name() string { return routerNames[rt] }

// Route returns the destination shard in [0, shards) for element x
// submitted in the given 1-based round.
func (rt Router) Route(x int64, round int, shards int, r *rng.RNG) int {
	switch rt {
	case Uniform:
		return r.Intn(shards)
	case HashByValue:
		// SplitMix64: full avalanche, so consecutive values spread
		// uniformly across shards.
		return int(rng.Mix64(uint64(x)) % uint64(shards))
	case RoundRobin:
		return (round - 1) % shards
	}
	panic("shard: unknown router")
}

// Routers returns every routing mode, in table order.
func Routers() []Router { return []Router{Uniform, HashByValue, RoundRobin} }
