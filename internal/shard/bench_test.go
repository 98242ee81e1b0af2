package shard

import (
	"fmt"
	"math/bits"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// BenchmarkMergedVerdict measures one global checkpoint on a loaded engine:
// Reset + MergeFrom over every shard's accumulator + Max. Cost is
// O(S * distinct values), independent of how much raw traffic the shards
// absorbed; BENCH.md compares it against re-ingesting the concatenated
// stream.
func BenchmarkMergedVerdict(b *testing.B) {
	const n = 1 << 18
	for _, universe := range []int64{1 << 20, 1 << 12} {
		for _, S := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("U=2^%d/S=%d", bits.Len64(uint64(universe))-1, S), func(b *testing.B) {
				eng := New(Config{
					Shards: S,
					Router: Uniform,
					System: setsystem.NewPrefixes(universe),
					NewSampler: func(int) game.Sampler {
						return sampler.NewReservoir[int64](2048)
					},
					Workers: 1,
				}, rng.New(1))
				gen := rng.New(2)
				stream := make([]int64, n)
				for i := range stream {
					stream[i] = 1 + gen.Int63n(universe)
				}
				eng.OfferBatch(stream)
				eng.Verdict() // warm the scratch engine's tables
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if eng.Verdict().Err < 0 {
						b.Fatal("impossible verdict")
					}
				}
			})
		}
	}
}

// BenchmarkVerdictByReingest is the baseline MergedVerdict replaces: an
// accumulator rebuilt from the concatenated raw stream and union sample at
// every checkpoint.
func BenchmarkVerdictByReingest(b *testing.B) {
	const n = 1 << 18
	for _, universe := range []int64{1 << 20, 1 << 12} {
		b.Run(fmt.Sprintf("U=2^%d", bits.Len64(uint64(universe))-1), func(b *testing.B) {
			benchReingest(b, n, universe)
		})
	}
}

func benchReingest(b *testing.B, n int, universe int64) {
	sys := setsystem.NewPrefixes(universe)
	eng := New(Config{
		Shards: 4,
		Router: Uniform,
		System: sys,
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](2048)
		},
		Workers: 1,
	}, rng.New(1))
	gen := rng.New(2)
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = 1 + gen.Int63n(universe)
	}
	eng.OfferBatch(stream)
	acc := sys.NewAccumulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		acc.AddStreamBatch(stream)
		for _, v := range eng.SampleView() {
			acc.AddSample(v)
		}
		if acc.Max().Err < 0 {
			b.Fatal("impossible verdict")
		}
	}
}

// BenchmarkShardedIngest measures ingest throughput vs shard count: one
// fixed stream routed across S shards (uniform routing, per-shard
// reservoirs), shards ingesting in parallel, with a merged checkpoint
// verdict at the end of every pass. SetBytes reports stream bytes so ns/op
// converts to MB/s; BENCH.md records the throughput-vs-S table.
func BenchmarkShardedIngest(b *testing.B) {
	const n = 1 << 18
	const universe = int64(1) << 20
	gen := rng.New(9)
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = 1 + gen.Int63n(universe)
	}
	for _, S := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("S=%d", S), func(b *testing.B) {
			eng := New(Config{
				Shards: S,
				Router: Uniform,
				System: setsystem.NewPrefixes(universe),
				NewSampler: func(int) game.Sampler {
					return sampler.NewReservoir[int64](2048)
				},
			}, nil)
			root := rng.New(3)
			b.SetBytes(8 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.StartGame(root)
				eng.OfferBatch(stream)
				if eng.Verdict().Err < 0 {
					b.Fatal("impossible verdict")
				}
			}
		})
	}
}
