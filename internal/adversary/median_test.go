// External test package: the sharded arm drives game.RunSharded with the
// real internal/shard engine, which itself imports adversary.
package adversary_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"robustsample/internal/adversary"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/shard"
)

// sortingPusher is the reference median pusher: it sorts a copy of the
// whole sample every round and ignores the delta.
type sortingPusher struct{ universe int64 }

func (p sortingPusher) Name() string { return "median-pusher" }
func (p sortingPusher) Reset()       {}
func (p sortingPusher) Next(obs game.Observation, r *rng.RNG) int64 {
	if len(obs.Sample) == 0 {
		return p.universe / 2
	}
	sorted := slices.Clone(obs.Sample)
	slices.Sort(sorted)
	med := sorted[len(sorted)/2]
	span := p.universe - med
	if span < 1 {
		return p.universe
	}
	return med + 1 + r.Int63n(span)
}

// pusherSamplers lists the four sampler families the games run against.
var pusherSamplers = []struct {
	name string
	mk   func() game.Sampler
}{
	{"bernoulli", func() game.Sampler { return sampler.NewBernoulli[int64](0.2) }},
	{"reservoir", func() game.Sampler { return sampler.NewReservoir[int64](16) }},
	{"reservoirL", func() game.Sampler { return sampler.NewReservoirL[int64](16) }},
	{"with-replacement", func() game.Sampler { return sampler.NewWithReplacement[int64](16) }},
}

// TestMedianPusherMatchesSortingReference plays whole games with the
// delta-fed MedianPusher and with the sorting reference and demands
// identical streams, samples, prefix errors and verdicts, for every sampler
// family in Run and RunContinuous. One pusher plays every seed, so Reset
// must also drop the previous game's mirror. The small universe drives the
// pusher against its ceiling, where samples fill with duplicates.
func TestMedianPusherMatchesSortingReference(t *testing.T) {
	const n = 400
	for _, universe := range []int64{64, 1 << 20} {
		sys := setsystem.NewPrefixes(universe)
		cps := game.MustCheckpoints(16, n, 0.05)
		for _, ps := range pusherSamplers {
			pusher := adversary.NewMedianPusher(universe)
			ref := sortingPusher{universe}
			for seed := uint64(1); seed <= 30; seed++ {
				label := fmt.Sprintf("U=%d/%s/seed%d", universe, ps.name, seed)
				got := game.Run(ps.mk(), pusher, sys, n, 0.2, rng.New(seed))
				want := game.Run(ps.mk(), ref, sys, n, 0.2, rng.New(seed))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Run differs from the sorting reference", label)
				}
				gotC := game.RunContinuous(ps.mk(), pusher, sys, n, 0.2, cps, rng.New(seed))
				wantC := game.RunContinuous(ps.mk(), ref, sys, n, 0.2, cps, rng.New(seed))
				if !reflect.DeepEqual(gotC, wantC) {
					t.Fatalf("%s: RunContinuous differs from the sorting reference", label)
				}
			}
		}
	}
}

// TestMedianPusherShardedFallback: RunSharded hands the adversary the union
// sample with no delta, so the pusher runs its selection fallback; the game
// must still equal the sorting reference's.
func TestMedianPusherShardedFallback(t *testing.T) {
	const (
		n        = 600
		universe = int64(1 << 16)
	)
	sys := setsystem.NewPrefixes(universe)
	newEngine := func() *shard.Engine {
		return shard.New(shard.Config{
			Shards: 3,
			Router: shard.Uniform,
			System: sys,
			NewSampler: func(int) game.Sampler {
				return sampler.NewReservoir[int64](12)
			},
			Workers: 1,
		}, nil)
	}
	pusher := adversary.NewMedianPusher(universe)
	cps := game.MustCheckpoints(1, n, 0.1)
	for seed := uint64(1); seed <= 30; seed++ {
		got := game.RunSharded(newEngine(), pusher, n, 0.5, cps, rng.New(seed))
		want := game.RunSharded(newEngine(), sortingPusher{universe}, n, 0.5, cps, rng.New(seed))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: RunSharded differs from the sorting reference", seed)
		}
	}
}
