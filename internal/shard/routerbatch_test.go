package shard

import (
	"fmt"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
)

// stripeRouter is a Router the liveRouter switch does not recognize, so it
// exercises the locked fallback path.
type stripeRouter struct{}

func (stripeRouter) Name() string { return "stripe" }
func (stripeRouter) Reset()       {}
func (stripeRouter) Route(x int64, round int, shards int, _ *rng.RNG) int {
	return int((uint64(x) + uint64(round)) % uint64(shards))
}

// TestLiveRouterBatchMatchesScalar pins the live routing contract against
// an oracle outside the live router: however a lane's stream is split into
// runs — runs of one included — element i (round i+1) must go where the
// serial Router.Route sends it. That is the hash for HashByValue, the
// (round-1) % S ticket order for RoundRobin and the stripe router's own
// rule through the locked fallback; for Uniform, Route is Intn(S) on an
// RNG split from an identically seeded routing stream in lane order, so
// the check doubles as a test of the exact-drain bulk-RNG discipline.
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
	routers := append(Routers(), stripeRouter{})
	for _, router := range routers {
		for _, S := range []int{1, 3, 4} {
			for _, split := range splits {
				name := fmt.Sprintf("%s/S=%d/%s", router.Name(), S, split.name)
				chunks := split.chunks
				cfg := Config{Shards: S, Router: router, System: sys, Workers: 1}
				eng := New(cfg, rng.New(5))
				route := eng.liveRouter(&Serving{e: eng}, producers)

				// The oracle's lane RNGs: the routing stream of an
				// identically seeded engine, split once per lane in order.
				ref := New(cfg, rng.New(5)).routerRNG
				laneRNG := make([]*rng.RNG, producers)
				for i := range laneRNG {
					laneRNG[i] = ref.Split()
				}
				// The last lane routes; a ticket or fallback round is
				// session-wide, so it starts at round 1 on any lane.
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
