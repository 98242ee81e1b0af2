package shard

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"robustsample/internal/faults"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/runtime"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// chaosEngine builds the standard chaos-test engine: S shards, reservoir
// samplers (snapshot-codec capable), prefix system, given router.
func chaosEngine(S int, router Router, seed uint64) *Engine {
	return New(Config{
		Shards: S, Router: router, System: setsystem.NewPrefixes(servingUniverse),
		NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](64) },
		Workers:    1,
	}, rng.New(seed))
}

// TestServingChaosDeterministicBitIdentical is the deterministic-mode half
// of the rejoin contract: with every shard crashed at least once (scheduled
// ordinals) plus probabilistic crashes, corrupt batches and delays, the
// recovered session's samples and verdict tables must be bit-identical to
// plain serial OfferBatch of the same stream — crash, restore, journal replay
// and retry must leave no trace. Runs under -race in CI's chaos smoke.
func TestServingChaosDeterministicBitIdentical(t *testing.T) {
	const (
		S = 4
		P = 2
		n = 6000
	)
	stream := servingStream(n, 1234)

	// Serial reference.
	serial := chaosEngine(S, RoundRobin, 7)
	serial.OfferBatch(stream)
	want := observe(serial.Verdict(), serial)

	for _, tc := range []struct {
		name string
		spec faults.Spec
	}{
		{"checkpoint-only", faults.Spec{}}, // supervision on, no faults injected
		{"crash-every-shard", faults.Spec{
			Seed:          9,
			CrashOrdinals: [][]uint64{{2, 5}, {1}, {3, 7}, {4}},
			CrashProb:     0.02,
			CorruptProb:   0.05,
			DelayProb:     0.05,
			DelayFor:      50 * time.Microsecond,
		}},
	} {
		eng := chaosEngine(S, RoundRobin, 7)
		var plan *faults.Plan
		scfg := ServeConfig{
			Producers: P, Deterministic: true,
			RingSize: 64, ChunkCap: 32, CheckpointEvery: 256,
		}
		injecting := tc.spec.CrashOrdinals != nil
		if injecting {
			plan = faults.MustPlan(tc.spec, S)
			scfg.Faults = plan
		}
		srv, err := eng.Serve(scfg)
		if err != nil {
			t.Fatalf("%s: Serve: %v", tc.name, err)
		}
		offerStriped(t, srv, stream, 0, n, P)
		srv.Flush()
		got := observe(srv.Verdict(), servingView{srv, S})
		h := srv.Health()
		srv.Close()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered trajectory diverged from serial OfferBatch\n got: %+v\nwant: %+v", tc.name, got, want)
		}
		if fin := observe(eng.Verdict(), eng); !reflect.DeepEqual(fin, want) {
			t.Fatalf("%s: post-Close engine state diverged", tc.name)
		}
		if h.LostRounds != 0 {
			t.Fatalf("%s: deterministic mode lost %d rounds, want 0 (journal replay)", tc.name, h.LostRounds)
		}
		if !h.Supervised {
			t.Fatalf("%s: Health reports unsupervised", tc.name)
		}
		if injecting {
			if crashes := plan.Count(faults.Crash); crashes < S {
				t.Fatalf("%s: only %d crashes injected, want >= %d (every shard at least once)", tc.name, crashes, S)
			}
			for i, sh := range h.Shards {
				if sh.Crashes < 1 {
					t.Fatalf("%s: shard %d never crashed (crash ordinals missed)", tc.name, i)
				}
				if sh.Restores != sh.Crashes {
					t.Fatalf("%s: shard %d: %d restores for %d crashes", tc.name, i, sh.Restores, sh.Crashes)
				}
				if sh.Status != Healthy {
					t.Fatalf("%s: shard %d still %v after recovery", tc.name, i, sh.Status)
				}
			}
			if h.Crashes == 0 || h.Restores != h.Crashes {
				t.Fatalf("%s: aggregate crash/restore counters inconsistent: %+v", tc.name, h)
			}
		}
		if h.Checkpoints < uint64(S) {
			t.Fatalf("%s: %d checkpoints, want at least the %d baselines", tc.name, h.Checkpoints, S)
		}
	}
}

// TestServingChaosLiveBoundedLoss is the live-mode half of the rejoin
// contract: crashes roll shards back to their latest checkpoint, and the
// round counters must reconcile exactly — offered == covered + lost — with
// the loss bounded by one checkpoint interval (plus one dropped chunk) per
// crash. Queries run concurrently throughout and must stay in range.
func TestServingChaosLiveBoundedLoss(t *testing.T) {
	const (
		S       = 3
		P       = 4
		perLane = 8000
		every   = 512
		chunk   = 48
	)
	eng := chaosEngine(S, Uniform, 21)
	plan := faults.MustPlan(faults.Spec{
		Seed:          31,
		CrashOrdinals: [][]uint64{{2, 40}, {3}, {5, 60}},
		CrashProb:     0.01,
		CorruptProb:   0.02,
	}, S)
	srv, err := eng.Serve(ServeConfig{
		Producers: P, RingSize: 256, ChunkCap: chunk,
		CheckpointEvery: every, Faults: plan, QueryWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		qr := rng.New(77)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, cov := srv.VerdictCovered()
			if d.Err < 0 || d.Err > 1 {
				t.Errorf("VerdictCovered out of range: %v", d)
				return
			}
			if cov.Included < 0 || cov.Included > S || cov.Covered > cov.Routed {
				t.Errorf("bad coverage: %+v", cov)
				return
			}
			if gs, _ := srv.GlobalSampleCovered(16, qr); len(gs) > 0 {
				for _, x := range gs {
					if x < 1 || x > servingUniverse {
						t.Errorf("GlobalSampleCovered out-of-universe %d", x)
						return
					}
				}
			}
			h := srv.Health()
			for _, sh := range h.Shards {
				if sh.Status != Healthy && sh.Status != Degraded {
					t.Errorf("invalid shard status %v", sh.Status)
					return
				}
			}
		}
	}()

	var pwg sync.WaitGroup
	pwg.Add(P)
	for lane := 0; lane < P; lane++ {
		go func(lane int) {
			defer pwg.Done()
			pr := srv.Producer(lane)
			xs := servingStream(perLane, uint64(9000+lane))
			for len(xs) > 0 {
				m := min(53, len(xs))
				if err := pr.OfferBatch(xs[:m]); err != nil {
					t.Errorf("lane %d: %v", lane, err)
					return
				}
				xs = xs[m:]
			}
		}(lane)
	}
	pwg.Wait()
	srv.Flush()
	close(stop)
	qwg.Wait()
	h := srv.Health()
	srv.Close()

	const offered = P * perLane
	covered := 0
	for i := 0; i < S; i++ {
		covered += eng.ShardRounds(i)
	}
	if got := covered + int(h.LostRounds); got != offered {
		t.Fatalf("conservation broken: covered %d + lost %d = %d, offered %d",
			covered, h.LostRounds, got, offered)
	}
	if eng.Rounds() != offered-int(h.LostRounds) {
		t.Fatalf("engine rounds %d, want offered - lost = %d", eng.Rounds(), offered-int(h.LostRounds))
	}
	for i, sh := range h.Shards {
		if sh.Crashes < 1 {
			t.Fatalf("shard %d never crashed", i)
		}
	}
	if bound := h.Crashes * uint64(every+chunk); h.LostRounds > bound {
		t.Fatalf("lost %d rounds over %d crashes, bound is %d (one checkpoint interval + one chunk per crash)",
			h.LostRounds, h.Crashes, bound)
	}
	// The drained engine keeps working serially.
	if d := eng.Verdict(); d.Err < 0 || d.Err > 1 {
		t.Fatalf("post-chaos Verdict out of range: %v", d)
	}
}

// TestServingChaosQueriesNeverBlock pins the degraded-read promise: with
// every consumer wedged in a long injected stall (holding its shard lock),
// VerdictCovered/SampleCovered return within their wait bound over the
// healthy subset, and Health answers lock-free — nothing blocks for the
// stall's duration.
//
//robust:nondet wall-clock soak deadlines and latency bounds; none reach sampler or verdict state
func TestServingChaosQueriesNeverBlock(t *testing.T) {
	const stall = 300 * time.Millisecond
	eng := chaosEngine(2, RoundRobin, 5)
	plan := faults.MustPlan(faults.Spec{
		Seed: 3, StallProb: 1, StallFor: stall, MaxPerShard: 3,
	}, 2)
	srv, err := eng.Serve(ServeConfig{
		Producers: 1, RingSize: 64, ChunkCap: 16,
		CheckpointEvery: 64, Faults: plan, QueryWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Offer from a background goroutine: the ring backs up behind the
	// stalled consumers, so the producer blocks while we query.
	done := make(chan error, 1)
	go func() { done <- srv.Producer(0).OfferBatch(servingStream(200, 42)) }()

	// Catch at least one consumer provably wedged mid-stall: the query
	// must return fast and report the wedged shard as skipped.
	sawStall := false
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		start := time.Now()
		_, cov := srv.VerdictCovered()
		if took := time.Since(start); took > stall/2 {
			t.Fatalf("VerdictCovered took %v during a %v stall — degraded read blocked", took, stall)
		}
		_ = srv.Health() // must never block (lock-free)
		if !cov.Complete() {
			sawStall = true
			if len(cov.Stalled)+cov.Included != cov.Shards {
				t.Fatalf("inconsistent coverage report: %+v", cov)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawStall {
		t.Fatal("never observed a stalled shard being skipped (injection did not wedge a consumer)")
	}
	start := time.Now()
	_, cov := srv.SampleCovered()
	if took := time.Since(start); took > stall/2 {
		t.Fatalf("SampleCovered took %v during the stall", took)
	}
	if cov.Covered > cov.Routed {
		t.Fatalf("coverage claims more rounds than routed: %+v", cov)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	srv.Flush() // stalls end; everything applies
	if _, cov := srv.VerdictCovered(); !cov.Complete() {
		t.Fatalf("post-flush coverage incomplete: %+v", cov)
	}
	srv.Close()
	if got := eng.Rounds(); got != 200 {
		t.Fatalf("post-Close rounds %d, want 200 (stalls lose nothing)", got)
	}
}

// TestServingChaosNoShardReachable pins the degraded reads' floor: with
// every shard lock held past QueryWait, all three covered reads return
// rather than block or panic, report no shard included and every shard
// stalled, answer from nothing (an empty sample), and draw nothing from
// the caller's RNG.
func TestServingChaosNoShardReachable(t *testing.T) {
	eng := chaosEngine(1, RoundRobin, 5)
	srv, err := eng.Serve(ServeConfig{QueryWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Producer(0).OfferBatch(servingStream(100, 42)); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	held, release := make(chan struct{}), make(chan struct{})
	go srv.pl.WithShard(0, func() {
		close(held)
		<-release
	})
	<-held

	unreached := func(name string, cov Coverage) {
		t.Helper()
		if cov.Included != 0 || cov.Covered != 0 || !reflect.DeepEqual(cov.Stalled, []int{0}) || cov.Routed != 100 {
			t.Fatalf("%s with every shard held: coverage %+v, want none included, shard 0 stalled, 100 routed", name, cov)
		}
	}
	d, cov := srv.VerdictCovered()
	unreached("VerdictCovered", cov)
	if d.Err != 0 {
		t.Fatalf("VerdictCovered over no shard = %+v, want a zero verdict", d)
	}
	sample, cov := srv.SampleCovered()
	unreached("SampleCovered", cov)
	if len(sample) != 0 {
		t.Fatalf("SampleCovered over no shard returned %d points", len(sample))
	}
	r := rng.New(11)
	hi, lo := r.State()
	global, cov := srv.GlobalSampleCovered(8, r)
	unreached("GlobalSampleCovered", cov)
	if len(global) != 0 {
		t.Fatalf("GlobalSampleCovered over no shard returned %d points", len(global))
	}
	if hi2, lo2 := r.State(); hi2 != hi || lo2 != lo {
		t.Fatal("GlobalSampleCovered over no shard drew from the coordinator RNG")
	}

	close(release)
	if _, cov := srv.GlobalSampleCovered(8, r); !cov.Complete() {
		t.Fatalf("coverage after the lock drops = %+v, want complete", cov)
	}
	srv.Close()
}

// TestServingChaosCloseCtxDeadline pins the serving-level drain deadline: a
// consumer wedged in a long stall cannot hang CloseCtx past its context,
// and the engine's counters are synced only once the drain really ends.
func TestServingChaosCloseCtxDeadline(t *testing.T) {
	eng := chaosEngine(1, RoundRobin, 5)
	plan := faults.MustPlan(faults.Spec{
		Seed: 3, StallProb: 1, StallFor: 500 * time.Millisecond, MaxPerShard: 1,
	}, 1)
	srv, err := eng.Serve(ServeConfig{
		Producers: 1, RingSize: 64, ChunkCap: 256,
		CheckpointEvery: 1024, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Producer(0).OfferBatch(servingStream(128, 6)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := srv.CloseCtx(ctx); !errors.Is(err, runtime.ErrDrainTimeout) {
		t.Fatalf("CloseCtx during stall = %v, want ErrDrainTimeout", err)
	}
	srv.Close() // waits out the stall; the same drain completes
	if got := eng.Rounds(); got != 128 {
		t.Fatalf("post-drain rounds %d, want 128", got)
	}
	if err := srv.Producer(0).Offer(1); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("Offer after Close = %v, want ErrClosed", err)
	}
}

// TestServingChaosHardCorruptDrops pins the bounded-loss path for
// unrecoverable chunks: a poison-pill batch that fails every retry is
// dropped after RetryLimit, its elements are counted as lost, and the
// session keeps serving.
func TestServingChaosHardCorruptDrops(t *testing.T) {
	const n = 512
	eng := chaosEngine(1, RoundRobin, 5)
	plan := faults.MustPlan(faults.Spec{
		Seed: 3, HardCorruptProb: 1, MaxPerShard: 1,
	}, 1)
	srv, err := eng.Serve(ServeConfig{
		Producers: 1, RingSize: 64, ChunkCap: 32,
		CheckpointEvery: 64, Faults: plan, RetryLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Producer(0).OfferBatch(servingStream(n, 8)); err != nil {
		t.Fatal(err)
	}
	srv.Flush() // must not hang on the dropped chunk
	h := srv.Health()
	srv.Close()
	if h.LostRounds == 0 || h.LostRounds > 32 {
		t.Fatalf("lost %d rounds, want 1..32 (exactly one dropped chunk)", h.LostRounds)
	}
	if h.Shards[0].Crashes != 3 {
		t.Fatalf("crashes = %d, want 3 (attempts 0..2 all poisoned)", h.Shards[0].Crashes)
	}
	if got, want := eng.Rounds(), n-int(h.LostRounds); got != want {
		t.Fatalf("rounds %d, want %d", got, want)
	}
	if plan.Count(faults.HardCorrupt) != 3 {
		t.Fatalf("hard-corrupt injections = %d, want 3", plan.Count(faults.HardCorrupt))
	}
}

// TestServeFaultPlanValidation pins Serve's supervision preconditions.
func TestServeFaultPlanValidation(t *testing.T) {
	eng := chaosEngine(2, RoundRobin, 5)
	if _, err := eng.Serve(ServeConfig{Faults: faults.MustPlan(faults.Spec{}, 3)}); err == nil {
		t.Fatal("Serve accepted a fault plan with the wrong shard count")
	}
	// Supervision needs a snapshot codec; a custom sampler type has none.
	engC := New(Config{
		Shards: 1, System: setsystem.NewPrefixes(servingUniverse),
		NewSampler: func(int) game.Sampler { return &noCodecSampler{sampler.NewReservoir[int64](8)} },
		Workers:    1,
	}, rng.New(1))
	if _, err := engC.Serve(ServeConfig{CheckpointEvery: 128}); err == nil {
		t.Fatal("Serve accepted supervision for an unsnapshottable sampler")
	}
	// Without supervision the same engine serves fine.
	if srv, err := engC.Serve(ServeConfig{}); err != nil {
		t.Fatalf("unsupervised Serve of codec-less engine: %v", err)
	} else {
		srv.Close()
	}
}

// noCodecSampler is a game.Sampler with no snapshot codec (the sampler
// package's AppendState does not know the type).
type noCodecSampler struct{ *sampler.Reservoir[int64] }
