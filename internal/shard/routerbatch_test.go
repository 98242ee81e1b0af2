package shard

import (
	"fmt"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// TestLiveRouterBatchMatchesScalar pins the live routing contract against
// an oracle outside the live router: however a lane's stream is split into
// runs — runs of one included — element i (round i+1) must go where the
// serial Router.Route sends it. That is the hash for HashByValue and the
// (round-1) % S ticket order for RoundRobin; for Uniform, Route is Intn(S)
// on an RNG split from the engine's routing stream in lane order, so the
// check doubles as a test of the exact-drain bulk-RNG discipline.
func TestLiveRouterBatchMatchesScalar(t *testing.T) {
	const n, producers = 1000, 2
	stream := servingStream(n, 17)
	sys := setsystem.NewPrefixes(servingUniverse)
	splits := []struct {
		name   string
		chunks []int
	}{
		{"ones", []int{1}},
		{"mixed", []int{1, 7, 8, 64, 123, 256}},
	}
	for _, router := range Routers() {
		for _, S := range []int{1, 3, 4} {
			for _, split := range splits {
				name := fmt.Sprintf("%s/S=%d/%s", router.Name(), S, split.name)
				chunks := split.chunks
				eng := New(Config{Shards: S, Router: router, System: sys, Workers: 1,
					NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](8) }}, rng.New(5))
				route := eng.liveRouter(&Serving{e: eng}, producers)

				// The oracle's lane RNGs: the engine's routing stream (the
				// first split of its seed), split once per lane in order.
				ref := rng.New(5).Split()
				laneRNG := make([]*rng.RNG, producers)
				for i := range laneRNG {
					laneRNG[i] = ref.Split()
				}
				// The last lane routes; a ticket round is session-wide, so
				// it starts at round 1 on any lane.
				lane := producers - 1
				got := make([]int, 0, n)
				dst := make([]int, chunks[len(chunks)-1])
				for i, c := 0, 0; i < n; c++ {
					k := min(chunks[c%len(chunks)], n-i)
					route(lane, stream[i:i+k], dst[:k])
					got = append(got, dst[:k]...)
					i += k
				}
				for i, x := range stream {
					if want := router.Route(x, i+1, S, laneRNG[lane]); got[i] != want {
						t.Fatalf("%s: element %d routed to %d, oracle says %d", name, i, got[i], want)
					}
				}
			}
		}
	}
}
