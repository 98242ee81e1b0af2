package shard_test

import (
	"context"
	"fmt"
	"sync"

	"robustsample/internal/rng"
	"robustsample/shard"
	"robustsample/sketch"
)

// Example routes one stream across four shards and answers coordinator
// queries from per-shard state alone: the merged verdict is bit-identical
// to a one-shot check of the union stream, and GlobalSample draws a
// uniform sample of the union from the per-shard samples ([CTW16]).
func Example() {
	u, err := sketch.NewInt64Universe(1 << 16)
	if err != nil {
		panic(err)
	}
	e, err := shard.New(u,
		shard.WithShards(4),
		shard.WithRouter(shard.RouterUniform),
		shard.WithSystem(shard.Prefixes),
		shard.WithReservoir(512),
		shard.WithSeed(20200614),
	)
	if err != nil {
		panic(err)
	}

	r := rng.New(1)
	batch := make([]int64, 20000)
	for i := range batch {
		batch[i] = 1 + r.Int63n(1<<16)
	}
	if _, err := e.OfferBatch(batch); err != nil {
		panic(err)
	}

	v, err := e.Verdict()
	if err != nil {
		panic(err)
	}
	global, err := e.GlobalSample(100)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shards=%d rounds=%d union sample=%d\n", e.NumShards(), e.Rounds(), e.SampleLen())
	fmt.Printf("global KS error=%.4f witness=[%d,%d] global sample k=%d\n", v.Err, v.Lo, v.Hi, len(global))
	// Output:
	// shards=4 rounds=20000 union sample=2048
	// global KS error=0.0085 witness=[1,31553] global sample k=100
}

// ExampleEngine_Serve lifts the engine into a concurrent serving session:
// two producer goroutines stripe a stream across lanes while the verdict
// is queried live. Deterministic mode sequences the lanes, so the result
// is byte-identical to serial ingest of the same stream — whatever the
// goroutine scheduling was.
func ExampleEngine_Serve() {
	u, err := sketch.NewInt64Universe(1 << 16)
	if err != nil {
		panic(err)
	}
	e, err := shard.New(u,
		shard.WithShards(4),
		shard.WithReservoir(512),
		shard.WithSeed(20200614),
		shard.WithPipeline(shard.PipelineConfig{Producers: 2, Deterministic: true}),
	)
	if err != nil {
		panic(err)
	}

	r := rng.New(1)
	stream := make([]int64, 20000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<16)
	}

	srv, err := e.Serve(context.Background())
	if err != nil {
		panic(err)
	}
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			pr, err := srv.Producer(lane)
			if err != nil {
				panic(err)
			}
			for g := lane; g < len(stream); g += 2 {
				if err := pr.Offer(stream[g]); err != nil {
					panic(err)
				}
			}
			pr.Close() // done: drop out of the sequencing rotation
		}(lane)
	}
	wg.Wait()

	ep := srv.Flush() // barrier: everything offered is now applied
	v, err := srv.Verdict()
	if err != nil {
		panic(err)
	}
	srv.Close()
	fmt.Printf("applied=%d rounds=%d union sample=%d\n", ep.Applied, e.Rounds(), e.SampleLen())
	fmt.Printf("live KS error=%.4f witness=[%d,%d]\n", v.Err, v.Lo, v.Hi)
	// Output:
	// applied=20000 rounds=20000 union sample=2048
	// live KS error=0.0085 witness=[1,31553]
}
