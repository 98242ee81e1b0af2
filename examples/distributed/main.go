// Distributed: continuous sharded sampling with coordinator queries,
// through the public robustsample/shard surface (Section 1.3; [CTW16],
// [CMYZ12]).
//
// One stream is routed across S shards; each shard keeps its own robust
// sampler and discrepancy histogram. The coordinator answers global
// questions from per-shard state alone: the merged Verdict is bit-identical
// to a one-shot check of the union stream, and GlobalSample draws a
// uniform sample of the union from the per-shard samples. The engine
// checkpoint (Snapshot/Restore) migrates the whole deployment — every
// shard's sampler, histogram and RNG stream — between processes.
//
// Run: go run ./examples/distributed
package main

import (
	"fmt"

	"robustsample/internal/rng"
	"robustsample/shard"
	"robustsample/sketch"
)

func main() {
	const (
		shards   = 8
		n        = 40000
		universe = int64(1) << 20
	)
	u, err := sketch.NewInt64Universe(universe)
	if err != nil {
		panic(err)
	}
	engine, err := shard.New(u,
		shard.WithShards(shards),
		shard.WithRouter(shard.RouterUniform),
		shard.WithSystem(shard.Prefixes),
		shard.WithReservoir(1024),
		shard.WithSeed(3),
	)
	if err != nil {
		panic(err)
	}

	// A drifting workload: the value distribution shifts mid-stream.
	r := rng.New(9)
	stream := make([]int64, n)
	for i := range stream {
		if i < n/2 {
			stream[i] = 1 + r.Int63n(universe/4)
		} else {
			stream[i] = universe/2 + r.Int63n(universe/2)
		}
	}
	if _, err := engine.OfferBatch(stream[:n/2]); err != nil {
		panic(err)
	}

	// Checkpoint mid-stream and continue in a "new process".
	snap, err := engine.Snapshot()
	if err != nil {
		panic(err)
	}
	migrated, err := shard.New(u,
		shard.WithShards(shards),
		shard.WithRouter(shard.RouterUniform),
		shard.WithSystem(shard.Prefixes),
		shard.WithReservoir(1024),
		shard.WithSeed(999), // every RNG stream comes from the snapshot
	)
	if err != nil {
		panic(err)
	}
	if err := migrated.Restore(snap); err != nil {
		panic(err)
	}
	if _, err := migrated.OfferBatch(stream[n/2:]); err != nil {
		panic(err)
	}

	v, err := migrated.Verdict()
	if err != nil {
		panic(err)
	}
	fmt.Printf("S=%d shards, n=%d routed (checkpointed at %d: %d-byte snapshot)\n",
		migrated.NumShards(), migrated.Rounds(), n/2, len(snap))
	fmt.Printf("global KS error of union sample = %.4f (witness [%d, %d])\n", v.Err, v.Lo, v.Hi)
	for i := 0; i < shards; i += 4 {
		sv, err := migrated.ShardVerdict(i)
		if err != nil {
			panic(err)
		}
		rounds, _ := migrated.ShardRounds(i)
		fmt.Printf("  shard %d: substream=%d local KS=%.4f\n", i, rounds, sv.Err)
	}
	global, err := migrated.GlobalSample(200)
	if err != nil {
		panic(err)
	}
	fmt.Printf("coordinator GlobalSample(200) -> %d elements of the union stream\n", len(global))
}
