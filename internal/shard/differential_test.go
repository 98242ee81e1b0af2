package shard

import (
	"fmt"
	"reflect"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// systemsUnder returns all four set systems over [1, u].
func systemsUnder(u int64) []setsystem.SetSystem {
	return []setsystem.SetSystem{
		setsystem.NewPrefixes(u),
		setsystem.NewIntervals(u),
		setsystem.NewSingletons(u),
		setsystem.NewSuffixes(u),
	}
}

// TestGlobalVerdictMatchesOneShotMaxDiscrepancy is the differential test of
// the mergeable-verdict path: for every set system, routing mode, shard
// count and worker count, the engine's merged global verdict must equal —
// bit for bit, error AND witness — the one-shot MaxDiscrepancy on the
// concatenated stream against the union of the per-shard samples.
func TestGlobalVerdictMatchesOneShotMaxDiscrepancy(t *testing.T) {
	const universe = 512
	const n = 3000
	for _, sys := range systemsUnder(universe) {
		for _, router := range Routers() {
			for _, shards := range []int{1, 2, 3, 5, 8} {
				for _, workers := range []int{1, 0, 7} {
					name := fmt.Sprintf("%s/%s/S=%d/workers=%d", sys.Name(), router.Name(), shards, workers)
					t.Run(name, func(t *testing.T) {
						root := rng.New(99)
						eng := New(Config{
							Shards: shards,
							Router: router,
							System: sys,
							NewSampler: func(int) game.Sampler {
								return sampler.NewReservoir[int64](40)
							},
							Workers: workers,
						}, root)
						gen := rng.New(7)
						stream := make([]int64, n)
						for i := range stream {
							stream[i] = 1 + gen.Int63n(universe)
						}
						// Mix bulk ingest, odd chunk sizes, and adaptive
						// single offers; check the verdict at several
						// prefixes, not just the end.
						checkAt := map[int]bool{1: true, 37: true, 1024: true, n: true}
						played := 0
						for _, step := range []int{1, 36, 400, 587, n} {
							for played < step {
								j := min(played+211, step)
								eng.OfferBatch(stream[played:j])
								played = j
							}
							if played < n {
								eng.Offer(stream[played])
								played++
							}
							if checkAt[played] {
								compareVerdict(t, sys, eng, stream[:played])
							}
						}
						for played < n {
							eng.OfferBatch(stream[played:min(played+997, n)])
							played = min(played+997, n)
						}
						compareVerdict(t, sys, eng, stream)
					})
				}
			}
		}
	}
}

// compareVerdict checks the merged verdict against the one-shot
// discrepancy of the stream offered so far against the union sample.
func compareVerdict(t *testing.T, sys setsystem.SetSystem, eng *Engine, offered []int64) {
	t.Helper()
	got := eng.Verdict()
	want := sys.MaxDiscrepancy(offered, eng.Sample())
	if got != want {
		t.Fatalf("merged verdict %+v differs from one-shot %+v at round %d", got, want, eng.Rounds())
	}
}

// TestEngineByteIdenticalAcrossWorkerCounts runs the same seeded game on
// worker pools of different sizes and requires identical samples, verdicts,
// and per-shard rounds and verdicts: shard ingest parallelism must never
// leak into results.
func TestEngineByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const universe = 1 << 20
	sys := setsystem.NewIntervals(universe)
	type shardOut struct {
		Rounds  int
		Verdict setsystem.Discrepancy
	}
	run := func(workers int) ([]int64, []shardOut, setsystem.Discrepancy) {
		eng := New(Config{
			Shards: 6,
			Router: Uniform,
			System: sys,
			NewSampler: func(i int) game.Sampler {
				if i%2 == 0 {
					return sampler.NewReservoir[int64](25)
				}
				return sampler.NewBernoulli[int64](0.01)
			},
			Workers: workers,
		}, rng.New(5))
		gen := rng.New(11)
		for i := 0; i < 40; i++ {
			xs := make([]int64, 500)
			for j := range xs {
				xs[j] = 1 + gen.Int63n(universe)
			}
			eng.OfferBatch(xs)
		}
		shards := make([]shardOut, eng.NumShards())
		for i := range shards {
			shards[i] = shardOut{eng.ShardRounds(i), eng.ShardVerdict(i)}
		}
		return eng.Sample(), shards, eng.Verdict()
	}
	baseSample, baseShards, baseVerdict := run(1)
	for _, workers := range []int{0, 3, 16} {
		s, shards, v := run(workers)
		if !reflect.DeepEqual(s, baseSample) {
			t.Fatalf("workers=%d: sample differs from serial", workers)
		}
		if !reflect.DeepEqual(shards, baseShards) {
			t.Fatalf("workers=%d: per-shard rounds or verdicts differ from serial", workers)
		}
		if v != baseVerdict {
			t.Fatalf("workers=%d: verdict %+v differs from serial %+v", workers, v, baseVerdict)
		}
	}
}

// TestEngineChunkingInvariance ingests the same stream in wildly different
// batch slicings and requires identical end states: routing and the shard
// samplers' batch paths depend only on element order, never on batch
// boundaries.
func TestEngineChunkingInvariance(t *testing.T) {
	const universe = 4096
	sys := setsystem.NewPrefixes(universe)
	stream := make([]int64, 5000)
	gen := rng.New(3)
	for i := range stream {
		stream[i] = 1 + gen.Int63n(universe)
	}
	run := func(chunks []int) ([]int64, setsystem.Discrepancy) {
		eng := New(Config{
			Shards: 4,
			Router: RoundRobin,
			System: sys,
			NewSampler: func(int) game.Sampler {
				return sampler.NewReservoir[int64](30)
			},
			Workers: 1,
		}, rng.New(21))
		played := 0
		ci := 0
		for played < len(stream) {
			c := chunks[ci%len(chunks)]
			ci++
			j := min(played+c, len(stream))
			if c == 1 {
				eng.Offer(stream[played])
				j = played + 1
			} else {
				eng.OfferBatch(stream[played:j])
			}
			played = j
		}
		return eng.Sample(), eng.Verdict()
	}
	baseSample, baseVerdict := run([]int{len(stream)})
	for _, chunks := range [][]int{{1}, {7}, {1, 997, 3}, {211, 1, 1, 4096}} {
		s, v := run(chunks)
		if !reflect.DeepEqual(s, baseSample) {
			t.Fatalf("chunks %v: sample differs from one-shot ingest", chunks)
		}
		if v != baseVerdict {
			t.Fatalf("chunks %v: verdict %+v differs from one-shot %+v", chunks, v, baseVerdict)
		}
	}
}
