// External test package: these tests drive game.RunSharded with the real
// internal/shard engine, which itself imports game — an import cycle if
// this file lived in package game.
package game_test

import (
	"reflect"
	"testing"

	"robustsample/internal/adversary"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/shard"
)

const shardedUniverse = int64(1 << 16)

func newShardedEngine(shards, k, workers int, router shard.Router, record bool) *shard.Engine {
	return shard.New(shard.Config{
		Shards: shards,
		Router: router,
		System: setsystem.NewPrefixes(shardedUniverse),
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](k)
		},
		Workers:       workers,
		RecordStreams: record,
	}, nil)
}

// TestRunShardedVerdictsMatchOneShot replays the sharded continuous game
// and checks that every checkpoint's recorded error matches the one-shot
// MaxDiscrepancy on the stream prefix against the union sample at that
// point. The final-round check covers error and witness exactly.
func TestRunShardedVerdictsMatchOneShot(t *testing.T) {
	sys := setsystem.NewPrefixes(shardedUniverse)
	for _, router := range shard.Routers() {
		eng := newShardedEngine(3, 20, 1, router, true)
		n := 4000
		cps := game.MustCheckpoints(1, n, 0.05)
		res := game.RunSharded(eng, adversary.NewStaticUniform(shardedUniverse), n, 0.5, cps, rng.New(17))
		if len(res.PrefixErrors) != len(cps) {
			t.Fatalf("%s: %d checkpoint errors, want %d", router.Name(), len(res.PrefixErrors), len(cps))
		}
		// Replay: same engine seed, same stream, stop at each checkpoint.
		replay := newShardedEngine(3, 20, 1, router, true)
		r := rng.New(17)
		replay.StartGame(r)
		played := 0
		for i, cp := range cps {
			replay.OfferBatch(res.Stream[played:cp])
			played = cp
			want := sys.MaxDiscrepancy(res.Stream[:cp], replay.Sample())
			if got := res.PrefixErrors[i].Err; got != want.Err {
				t.Fatalf("%s: checkpoint %d err %v, one-shot %v", router.Name(), cp, got, want.Err)
			}
			if cp == n && res.Discrepancy != want {
				t.Fatalf("%s: final discrepancy %+v, one-shot %+v", router.Name(), res.Discrepancy, want)
			}
		}
		if !reflect.DeepEqual(replay.Sample(), res.Sample) {
			t.Fatalf("%s: replayed sample differs", router.Name())
		}
	}
}

// TestRunShardedByteIdenticalAcrossWorkersAndChunks fixes the seed and
// varies only the engine worker pool and the span chunk cap; the full
// ContinuousResult must be byte-identical in all combinations.
func TestRunShardedByteIdenticalAcrossWorkersAndChunks(t *testing.T) {
	defer func(old int) { game.SpanChunkCap = old }(game.SpanChunkCap)
	run := func(workers, chunk int) game.ContinuousResult {
		game.SpanChunkCap = chunk
		eng := newShardedEngine(5, 15, workers, shard.Uniform{}, false)
		n := 3000
		return game.RunSharded(eng, adversary.NewStaticUniform(shardedUniverse), n, 0.5,
			game.MustCheckpoints(1, n, 0.1), rng.New(23))
	}
	base := run(1, 8192)
	for _, workers := range []int{0, 4} {
		for _, chunk := range []int{1, 97, 8192, 1 << 20} {
			got := run(workers, chunk)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d chunk=%d: sharded result differs from serial", workers, chunk)
			}
		}
	}
}

// TestRunShardedAdaptivePath plays an adaptive (non-StreamGenerator)
// adversary through the sharded game: the round loop must feed the
// coordinator's union sample to the adversary and still produce exact
// checkpoint verdicts.
func TestRunShardedAdaptivePath(t *testing.T) {
	sys := setsystem.NewPrefixes(shardedUniverse)
	eng := shard.New(shard.Config{
		Shards: 3,
		Router: shard.Uniform{},
		System: sys,
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](10)
		},
		Workers:       1,
		RecordStreams: true,
	}, nil)
	n := 800
	res := game.RunSharded(eng, adversary.NewMedianPusher(shardedUniverse), n, 0.9,
		game.AllRounds(n), rng.New(31))
	if len(res.Stream) != n {
		t.Fatalf("stream length %d", len(res.Stream))
	}
	if len(res.PrefixErrors) != n {
		t.Fatalf("expected %d per-round verdicts, got %d", n, len(res.PrefixErrors))
	}
	want := sys.MaxDiscrepancy(res.Stream, res.Sample)
	if res.Discrepancy != want {
		t.Fatalf("final discrepancy %+v, one-shot %+v", res.Discrepancy, want)
	}
	if res.MaxPrefixErr < res.Discrepancy.Err {
		t.Fatal("max prefix error below final error")
	}
}

// TestRunShardedSingleShardDegenerate checks the S=1 degenerate case: the
// engine reduces to one sampler and the game must agree with the one-shot
// verdict on the whole stream.
func TestRunShardedSingleShardDegenerate(t *testing.T) {
	sys := setsystem.NewIntervals(shardedUniverse)
	eng := shard.New(shard.Config{
		Shards: 1,
		System: sys,
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](25)
		},
		Workers: 1,
	}, nil)
	n := 2000
	res := game.RunSharded(eng, adversary.NewStaticSorted(shardedUniverse), n, 0.5,
		game.MustCheckpoints(1, n, 0.25), rng.New(3))
	want := sys.MaxDiscrepancy(res.Stream, res.Sample)
	if res.Discrepancy != want {
		t.Fatalf("final discrepancy %+v, one-shot %+v", res.Discrepancy, want)
	}
}

// deltaWatcher is an adaptive adversary that records whether any round's
// Observation claimed to know the sample delta.
type deltaWatcher struct{ rounds, known int }

func (w *deltaWatcher) Name() string { return "delta-watcher" }
func (w *deltaWatcher) Reset()       { *w = deltaWatcher{} }
func (w *deltaWatcher) Next(obs game.Observation, r *rng.RNG) int64 {
	w.rounds++
	if obs.DeltaKnown || obs.Added != nil || obs.Removed != nil {
		w.known++
	}
	return 1 + r.Int63n(shardedUniverse)
}

// TestRunShardedReportsNoDelta: the coordinator's union sample has no
// per-round delta, so RunSharded must never set Observation.DeltaKnown.
func TestRunShardedReportsNoDelta(t *testing.T) {
	eng := newShardedEngine(3, 10, 1, shard.Uniform{}, false)
	w := &deltaWatcher{}
	n := 300
	game.RunSharded(eng, w, n, 0.5, game.MustCheckpoints(1, n, 0.1), rng.New(5))
	if w.rounds != n || w.known != 0 {
		t.Fatalf("%d rounds, %d with a delta; want %d rounds, none with a delta", w.rounds, w.known, n)
	}
}
