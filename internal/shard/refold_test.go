package shard

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/snapshot"
)

// scratchSlots returns how many slots the merged-verdict scratch holds, read
// from its snapshot header (mode byte, universe, slot count).
func scratchSlots(t *testing.T, e *Engine) int {
	t.Helper()
	if e.global == nil {
		return 0
	}
	r := snapshot.NewReader(e.global.AppendSnapshot(nil))
	r.Byte()
	r.Int64()
	n := r.Uint64()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return int(n)
}

// distinct counts the distinct values of xs.
func distinct(xs []int64) int {
	seen := make(map[int64]struct{}, len(xs))
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

// TestVerdictRefoldMatchesOneShot drives serial Verdicts through a random
// mix of OfferBatch calls of random length, StartGame, and LoadState of
// another engine's snapshot, for every router and set system. Each verdict
// refolds counts into the scratch layout the previous one left, and must
// equal the one-shot on the stream offered since the stream began plus
// SampleView, empty streams included; the scratch never holds more slots
// than that stream has distinct values.
func TestVerdictRefoldMatchesOneShot(t *testing.T) {
	const universe = 300
	for _, sys := range systemsUnder(universe) {
		for _, router := range Routers() {
			t.Run(sys.Name()+"/"+router.Name(), func(t *testing.T) {
				mk := func(seed uint64) *Engine {
					return New(Config{
						Shards: 3, Router: router, System: sys,
						NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](16) },
						Workers:    1,
					}, rng.New(seed))
				}
				gen := rng.New(77)
				draw := func(n int, lo, span int64) []int64 {
					xs := make([]int64, n)
					for i := range xs {
						xs[i] = lo + gen.Int63n(span)
					}
					return xs
				}
				// The donor's values overlap the engine's only in part,
				// so a restore brings values the engine's layout lacks
				// and drops values it holds.
				donor := mk(2)
				donorStream := draw(700, 150, universe-150)
				donor.OfferBatch(donorStream)
				snap, err := AppendState(nil, donor)
				if err != nil {
					t.Fatal(err)
				}

				eng := mk(1)
				var offered []int64
				for step := 0; step < 60; step++ {
					var what string
					switch op := gen.Intn(10); {
					case op < 7:
						xs := draw(gen.Intn(160), 1, 200)
						eng.OfferBatch(xs)
						offered = append(offered, xs...)
						what = fmt.Sprintf("OfferBatch(%d)", len(xs))
					case op == 7:
						eng.StartGame(rng.New(uint64(step)))
						offered = offered[:0]
						what = "StartGame"
					case op == 8:
						if err := LoadState(snapshot.NewReader(snap), eng); err != nil {
							t.Fatal(err)
						}
						offered = append(offered[:0], donorStream...)
						what = "LoadState"
					default:
						what = "repeat"
					}
					got := eng.Verdict()
					if want := sys.MaxDiscrepancy(offered, eng.SampleView()); got != want {
						t.Fatalf("step %d after %s: verdict %+v, one-shot %+v", step, what, got, want)
					}
					if n, d := scratchSlots(t, eng), distinct(offered); n > d {
						t.Fatalf("step %d after %s: scratch holds %d slots, the stream has %d distinct values", step, what, n, d)
					}
				}
			})
		}
	}
}

// TestStartGameResetsVerdictScratch pins the scratch's bound across
// streams: a game over 4,096 distinct values, then one over 10, leaves the
// second game's verdict scratch with at most 10 slots, and a restored
// snapshot leaves it with at most the restored stream's distinct values.
func TestStartGameResetsVerdictScratch(t *testing.T) {
	mk := func(seed uint64) *Engine {
		return New(Config{
			Shards: 4, Router: HashByValue, System: setsystem.NewIntervals(1 << 12),
			NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](64) },
			Workers:    1,
		}, rng.New(seed))
	}
	wide := make([]int64, 1<<12)
	for i := range wide {
		wide[i] = int64(i) + 1
	}
	narrow := make([]int64, 500)
	for i := range narrow {
		narrow[i] = int64(i%10) + 1
	}
	eng := mk(1)
	eng.OfferBatch(wide)
	eng.Verdict()
	if n := scratchSlots(t, eng); n != len(wide) {
		t.Fatalf("first game: scratch holds %d slots, want %d", n, len(wide))
	}
	eng.StartGame(rng.New(2))
	eng.OfferBatch(narrow)
	eng.Verdict()
	if n := scratchSlots(t, eng); n > 10 {
		t.Fatalf("after StartGame: scratch holds %d slots, the game has 10 distinct values", n)
	}

	eng.OfferBatch(wide)
	eng.Verdict()
	donor := mk(3)
	donor.OfferBatch(narrow[:7])
	snap, err := AppendState(nil, donor)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadState(snapshot.NewReader(snap), eng); err != nil {
		t.Fatal(err)
	}
	eng.Verdict()
	if n := scratchSlots(t, eng); n > 7 {
		t.Fatalf("after LoadState: scratch holds %d slots, the restored stream has 7 distinct values", n)
	}
}

// TestServingRefoldSkipsHeldShard checks live refolds over a partial walk.
// With one shard held past QueryWait, VerdictCovered folds the other shards
// into a scratch laid out by the previous full verdict, so under
// HashByValue the held shard's values sit at zero; it must equal the
// one-shot over the covered shards' substreams and samples. Once the shard
// is released, a full Verdict must equal the one-shot over everything.
func TestServingRefoldSkipsHeldShard(t *testing.T) {
	const S = 4
	for _, sys := range systemsUnder(servingUniverse) {
		t.Run(sys.Name(), func(t *testing.T) {
			eng := New(Config{
				Shards: S, Router: HashByValue, System: sys,
				NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](32) },
				Workers:    1,
			}, rng.New(21))
			srv, err := eng.Serve(ServeConfig{QueryWait: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			stream := servingStream(4000, 8)
			full := func(offered []int64) {
				t.Helper()
				got := srv.Verdict()
				if want := sys.MaxDiscrepancy(offered, srv.Sample()); got != want {
					t.Fatalf("full verdict %+v, one-shot %+v", got, want)
				}
			}
			for i := 0; i < S; i++ {
				offered := stream[:1000*(i+1)]
				if err := srv.Producer(0).OfferBatch(stream[1000*i : 1000*(i+1)]); err != nil {
					t.Fatal(err)
				}
				srv.Flush()
				full(offered)

				held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
				go func() {
					srv.pl.WithShard(i, func() {
						close(held)
						<-release
					})
					close(done)
				}()
				<-held
				got, cov := srv.VerdictCovered()
				sample, _ := srv.SampleCovered()
				close(release)
				<-done
				if cov.Included != S-1 || !reflect.DeepEqual(cov.Stalled, []int{i}) {
					t.Fatalf("shard %d held: coverage %+v, want %d shards included and shard %d stalled", i, cov, S-1, i)
				}
				var covered []int64
				for _, x := range offered {
					if HashByValue.Route(x, 0, S, nil) != i {
						covered = append(covered, x)
					}
				}
				if want := sys.MaxDiscrepancy(covered, sample); got != want {
					t.Fatalf("shard %d held: covered verdict %+v, one-shot over the covered shards %+v", i, got, want)
				}
				full(offered)
			}
		})
	}
}

// TestMergedVerdictAllocatesNothing pins the refold's steady state: once
// the first verdict has laid out the scratch, a serial Engine.Verdict and a
// Serving.Verdict over the same stream allocate nothing.
func TestMergedVerdictAllocatesNothing(t *testing.T) {
	const universe = int64(1) << 12
	eng := New(Config{
		Shards: 4, Router: HashByValue, System: setsystem.NewPrefixes(universe),
		NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](256) },
		Workers:    1,
	}, rng.New(1))
	gen := rng.New(2)
	stream := make([]int64, 1<<15)
	for i := range stream {
		stream[i] = 1 + gen.Int63n(universe)
	}
	eng.OfferBatch(stream)
	eng.Verdict()
	if a := testing.AllocsPerRun(20, func() { eng.Verdict() }); a != 0 {
		t.Errorf("Engine.Verdict: %v allocs per call, want 0", a)
	}
	srv, err := eng.Serve(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Verdict()
	if a := testing.AllocsPerRun(20, func() { srv.Verdict() }); a != 0 {
		t.Errorf("Serving.Verdict: %v allocs per call, want 0", a)
	}
}
