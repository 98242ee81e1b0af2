package shard

import (
	"math"
	"slices"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/stats"
)

// ShardSampler returns shard i's sampler.
func (e *Engine) ShardSampler(i int) game.Sampler { return e.shards[i].sampler }

// routeOracle replays an engine's serial routing outside the engine and
// returns each shard's substream of xs. An engine seeded with rng.New(seed)
// routes from that seed's first split, one Route per element in order.
func routeOracle(router Router, shards int, seed uint64, xs []int64) [][]int64 {
	r := rng.New(seed).Split()
	subs := make([][]int64, shards)
	for i, x := range xs {
		si := router.Route(x, i+1, shards, r)
		subs[si] = append(subs[si], x)
	}
	return subs
}

// checkShardsAgainstOracle checks every shard of eng against its oracle
// substream: the substream lengths match, and each shard verdict equals the
// one-shot discrepancy of the oracle substream against the shard's sample.
func checkShardsAgainstOracle(t *testing.T, name string, sys setsystem.SetSystem, eng *Engine, subs [][]int64) {
	t.Helper()
	for i, sub := range subs {
		if got := eng.ShardRounds(i); got != len(sub) {
			t.Fatalf("%s: shard %d holds %d rounds, oracle routed %d", name, i, got, len(sub))
		}
		if got, want := eng.ShardVerdict(i), sys.MaxDiscrepancy(sub, eng.ShardSampler(i).View()); got != want {
			t.Fatalf("%s: shard %d verdict %+v, one-shot on the oracle substream %+v", name, i, got, want)
		}
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	rr := RoundRobin
	counts := make([]int, 3)
	for round := 1; round <= 300; round++ {
		counts[rr.Route(42, round, 3, nil)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("shard %d received %d of 300", i, c)
		}
	}
}

func TestHashByValueIsConsistentAndSpread(t *testing.T) {
	h := HashByValue
	counts := make([]int, 4)
	for x := int64(0); x < 4000; x++ {
		a := h.Route(x, 1, 4, nil)
		b := h.Route(x, 999, 4, nil)
		if a != b {
			t.Fatalf("hash routing of %d depends on round", x)
		}
		counts[a]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("hash shard %d received %d of 4000 (poor spread)", i, c)
		}
	}
}

func TestUniformRoutesInRange(t *testing.T) {
	u := Uniform
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		s := u.Route(int64(i), i+1, 5, r)
		if s < 0 || s >= 5 {
			t.Fatalf("uniform routed out of range: %d", s)
		}
	}
}

// TestUniformRoutingBalanced: every shard's count under uniform routing is
// within five standard deviations of n/S.
func TestUniformRoutingBalanced(t *testing.T) {
	u := Uniform
	r := rng.New(2)
	const n = 50000
	counts := make([]int, 5)
	for i := 0; i < n; i++ {
		counts[u.Route(int64(i), i+1, 5, r)]++
	}
	want := float64(n) / 5
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("shard %d received %d of %d, want ~%v", i, c, n, want)
		}
	}
}

func newTestEngine(shards, k int, router Router, seed uint64) *Engine {
	return New(Config{
		Shards: shards,
		Router: router,
		System: setsystem.NewPrefixes(1 << 16),
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](k)
		},
		Workers: 1,
	}, rng.New(seed))
}

// TestSubstreamsPartitionStream checks the routing bookkeeping against the
// routing oracle, under every router and both ingest paths: each shard's
// round count and local verdict match the substream the oracle routes to
// it, so the shards partition the stream as the router says.
func TestSubstreamsPartitionStream(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 16)
	for _, router := range Routers() {
		eng := newTestEngine(4, 10, router, 8)
		gen := rng.New(2)
		xs := make([]int64, 2000)
		for i := range xs {
			xs[i] = 1 + gen.Int63n(1<<16)
		}
		eng.OfferBatch(xs[:1500])
		for _, x := range xs[1500:] {
			eng.Offer(x)
		}
		if eng.Rounds() != len(xs) {
			t.Fatalf("%s: rounds %d, want %d", router.Name(), eng.Rounds(), len(xs))
		}
		checkShardsAgainstOracle(t, router.Name(), sys, eng, routeOracle(router, 4, 8, xs))
	}
}

// TestShardVerdictMatchesLocalOneShot checks per-shard verdicts against the
// one-shot oracle on the shard's own substream and sample, across batches.
func TestShardVerdictMatchesLocalOneShot(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 16)
	eng := newTestEngine(3, 12, HashByValue, 10)
	gen := rng.New(4)
	var stream []int64
	for i := 0; i < 5; i++ {
		xs := make([]int64, 700)
		for j := range xs {
			xs[j] = 1 + gen.Int63n(1<<16)
		}
		eng.OfferBatch(xs)
		stream = append(stream, xs...)
	}
	checkShardsAgainstOracle(t, "hash", sys, eng, routeOracle(HashByValue, 3, 10, stream))
}

func TestGlobalSampleDrawsFromUnion(t *testing.T) {
	eng := newTestEngine(4, 50, Uniform, 11)
	gen := rng.New(5)
	xs := make([]int64, 4000)
	for i := range xs {
		xs[i] = 1 + gen.Int63n(1<<16)
	}
	eng.OfferBatch(xs)
	union := map[int64]int{}
	for _, v := range eng.SampleView() {
		union[v]++
	}
	if eng.SampleLen() != len(eng.SampleView()) {
		t.Fatalf("SampleLen %d != union view length %d", eng.SampleLen(), len(eng.SampleView()))
	}
	got := eng.GlobalSample(60, rng.New(6))
	if len(got) != 60 {
		t.Fatalf("global sample size %d, want 60", len(got))
	}
	for _, v := range got {
		if union[v] == 0 {
			t.Fatalf("global sample drew %d, not present in any shard sample", v)
		}
		union[v]--
	}
}

// TestGlobalSampleClamped: asking for more than the shards hold returns the
// whole union sample, both before the reservoirs fill and after.
func TestGlobalSampleClamped(t *testing.T) {
	r := rng.New(22)
	eng := newUnionEngine(2, 10, r)
	for i := 0; i < 5; i++ {
		eng.Offer(int64(i))
	}
	if got := eng.GlobalSample(100, r); len(got) != 5 {
		t.Fatalf("unfilled shards: global sample has %d elements, want all 5", len(got))
	}
	for i := 5; i < 1000; i++ {
		eng.Offer(int64(i))
	}
	if got := eng.GlobalSample(100, r); len(got) != eng.SampleLen() || len(got) != 20 {
		t.Fatalf("full shards: global sample has %d elements, want the 20 held", len(got))
	}
}

// newUnionEngine is a uniform-routing engine over arbitrary int64 keys with
// per-shard reservoirs of the given capacity: the [CTW16] coordinator
// setting, where GlobalSample merges the shards' samples.
func newUnionEngine(shards, capacity int, r *rng.RNG) *Engine {
	return New(Config{
		Shards: shards,
		System: setsystem.NewPrefixes(math.MaxInt64),
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](capacity)
		},
	}, r)
}

func TestGlobalSampleRepresentative(t *testing.T) {
	r := rng.New(20)
	eng := newUnionEngine(4, 1000, r)
	stream := make([]int64, 20000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
		eng.Offer(stream[i])
	}
	global := eng.GlobalSample(2000, r)
	if len(global) != 2000 {
		t.Fatalf("global sample size %d", len(global))
	}
	if ks := stats.KSDistanceInt64(stream, global); ks > 0.06 {
		t.Fatalf("merged global sample KS %v too large", ks)
	}
}

// TestGlobalVerdictOnUnionEngine: over the full int64 universe the merged
// verdict still equals the one-shot MaxDiscrepancy on the whole stream
// against the union of the reservoirs, and 2000 pooled slots over a benign
// stream are comfortably representative.
func TestGlobalVerdictOnUnionEngine(t *testing.T) {
	r := rng.New(23)
	eng := newUnionEngine(4, 500, r)
	stream := make([]int64, 20000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
		eng.Offer(stream[i])
	}
	got := eng.Verdict()
	want := setsystem.NewPrefixes(math.MaxInt64).MaxDiscrepancy(stream, eng.Sample())
	if got != want {
		t.Fatalf("merged verdict %+v, one-shot %+v", got, want)
	}
	if got.Err > 0.1 {
		t.Fatalf("benign union sample unexpectedly unrepresentative: %v", got.Err)
	}
}

// TestGlobalSampleInclusionBalance: elements routed to different shards
// must appear in the global sample at equal rates, so the first and second
// halves of the stream are equally represented.
func TestGlobalSampleInclusionBalance(t *testing.T) {
	root := rng.New(21)
	const n = 8000
	low, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		eng := newUnionEngine(3, 600, r)
		for i := 0; i < n; i++ {
			eng.Offer(int64(i))
		}
		for _, v := range eng.GlobalSample(300, r) {
			total++
			if v < n/2 {
				low++
			}
		}
	}
	if frac := float64(low) / float64(total); frac < 0.45 || frac > 0.55 {
		t.Fatalf("first-half fraction %v, want ~0.5", frac)
	}
}

func TestStartGameReproducesRuns(t *testing.T) {
	eng := newTestEngine(4, 10, Uniform, 12)
	play := func() ([]int64, setsystem.Discrepancy) {
		eng.StartGame(rng.New(77))
		gen := rng.New(3)
		xs := make([]int64, 1200)
		for i := range xs {
			xs[i] = 1 + gen.Int63n(1<<16)
		}
		eng.OfferBatch(xs)
		return eng.Sample(), eng.Verdict()
	}
	s1, v1 := play()
	s2, v2 := play()
	if !slices.Equal(s1, s2) || v1 != v2 {
		t.Fatal("StartGame with equal seeds did not reproduce the run")
	}
}

// TestConfigValidation pins New's construction panics: no shards, no
// sampler, samplers without a set system, an unknown router, and samplers
// lacking the bulk ingest (OfferBatch) every shard applies through.
func TestConfigValidation(t *testing.T) {
	reservoir := func(int) game.Sampler { return sampler.NewReservoir[int64](4) }
	withSampler := func(mk func() game.Sampler) func() {
		return func() {
			New(Config{Shards: 2, System: setsystem.NewPrefixes(64), NewSampler: func(int) game.Sampler {
				return mk()
			}}, rng.New(1))
		}
	}
	type noBatch struct{ game.Sampler }
	for _, f := range []func(){
		func() { New(Config{Shards: 0}, rng.New(1)) },
		func() { New(Config{Shards: 2, System: setsystem.NewPrefixes(64)}, rng.New(1)) },
		func() { New(Config{Shards: 2, NewSampler: reservoir}, rng.New(1)) },
		func() {
			New(Config{Shards: 2, Router: RoundRobin + 1, System: setsystem.NewPrefixes(64), NewSampler: reservoir}, rng.New(1))
		},
		withSampler(func() game.Sampler {
			return noBatch{sampler.NewReservoir[int64](4)}
		}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected construction panic")
				}
			}()
			f()
		}()
	}
}

// TestTargetedBisectionPoisonsTargetShard runs the unbounded
// distributed-bisection arm and checks its qualitative shape: the target
// shard's sample becomes far less representative of the full stream than
// the merged coordinator sample, which the untargeted shards dilute.
func TestTargetedBisectionPoisonsTargetShard(t *testing.T) {
	const n = 6000
	out := RunTargetedBisectionUnbounded(4, n, 0.05, rng.New(42))
	if out.S != 4 || out.N != n {
		t.Fatalf("outcome labels: %+v", out)
	}
	if out.TargetSampleLen == 0 {
		t.Fatal("empty target sample; attack produced nothing to poison")
	}
	if out.TargetVsStream < 0.5 {
		t.Fatalf("attack too weak: target-vs-stream KS %v, want > 0.5", out.TargetVsStream)
	}
	if out.GlobalErr >= out.TargetVsStream {
		t.Fatalf("merged verdict (%v) should beat the poisoned target shard (%v)",
			out.GlobalErr, out.TargetVsStream)
	}
}
