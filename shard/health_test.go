package shard_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"robustsample/shard"
)

// TestHealthValueMethods pins the health vocabulary an operator reads: the
// status names, Degraded over any shard mid-recovery, and Complete only
// when every shard answered.
func TestHealthValueMethods(t *testing.T) {
	if shard.Healthy.String() != "healthy" || shard.Degraded.String() != "degraded" {
		t.Fatalf("status names %q, %q", shard.Healthy, shard.Degraded)
	}
	h := shard.Health{Shards: []shard.ShardHealth{{Status: shard.Healthy}, {Status: shard.Healthy}}}
	if h.Degraded() {
		t.Fatal("all-healthy session reported degraded")
	}
	h.Shards[1].Status = shard.Degraded
	if !h.Degraded() {
		t.Fatal("session with a degraded shard reported healthy")
	}
	if !(shard.Coverage{Shards: 3, Included: 3}).Complete() {
		t.Fatal("full coverage reported incomplete")
	}
	if (shard.Coverage{Shards: 3, Included: 2, Stalled: []int{1}}).Complete() {
		t.Fatal("coverage with a stalled shard reported complete")
	}
}

// TestServeSupervisedHealth runs a supervised public session (checkpoints
// on, no faults) and pins the health and coverage surface: checkpoint
// counters advance, round accounting is exact, and the covered query
// variants agree with the blocking ones under full coverage.
func TestServeSupervisedHealth(t *testing.T) {
	u := servingUniverse(t)
	const S, n = 4, 3000
	e, err := shard.New(u,
		shard.WithShards(S), shard.WithReservoir(32), shard.WithSeed(7),
		shard.WithWorkers(1),
		shard.WithPipeline(shard.PipelineConfig{
			Producers: 2, CheckpointEvery: 128, QueryWait: time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stream := servingValues(n)
	for lane := 0; lane < 2; lane++ {
		pr, err := srv.Producer(lane)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.OfferBatch(stream[lane*n/2 : (lane+1)*n/2]); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()

	h := srv.Health()
	if !h.Supervised || h.Degraded() {
		t.Fatalf("health = %+v, want supervised and healthy", h)
	}
	if h.Crashes != 0 || h.Restores != 0 || h.LostRounds != 0 {
		t.Fatalf("fault-free run reports crashes/restores/losses: %+v", h)
	}
	if h.Checkpoints < uint64(S) {
		t.Fatalf("checkpoints = %d, want at least the %d baselines", h.Checkpoints, S)
	}
	rounds := 0
	for i, sh := range h.Shards {
		if sh.Status != shard.Healthy {
			t.Fatalf("shard %d status %v", i, sh.Status)
		}
		rounds += sh.Rounds
	}
	if rounds != n {
		t.Fatalf("health rounds sum %d, want %d", rounds, n)
	}

	wantV, err := srv.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	gotV, cov, err := srv.VerdictCovered()
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() || cov.Covered != n || cov.Routed != n || len(cov.Stalled) != 0 {
		t.Fatalf("quiescent coverage = %+v, want complete over %d rounds", cov, n)
	}
	if gotV != wantV {
		t.Fatalf("VerdictCovered %+v under full coverage, Verdict %+v", gotV, wantV)
	}
	wantSample := srv.Sample()
	gotSample, cov2, err := srv.SampleCovered()
	if err != nil {
		t.Fatal(err)
	}
	if !cov2.Complete() || !slices.Equal(gotSample, wantSample) {
		t.Fatalf("SampleCovered diverged from Sample under full coverage")
	}
	gs, cov3, err := srv.GlobalSampleCovered(16)
	if err != nil {
		t.Fatal(err)
	}
	if !cov3.Complete() || len(gs) != 16 {
		t.Fatalf("GlobalSampleCovered = %d elements, coverage %+v", len(gs), cov3)
	}
	if _, _, err := srv.GlobalSampleCovered(0); !errors.Is(err, shard.ErrBadSample) {
		t.Fatalf("GlobalSampleCovered(0) = %v, want ErrBadSample", err)
	}
	srv.Close()
	if got := e.Rounds(); got != n {
		t.Fatalf("post-Close rounds %d, want %d", got, n)
	}
}

// TestServeUnsupervisedHealth pins the health view without supervision:
// still available, with exact per-shard rounds and no recovery counters.
func TestServeUnsupervisedHealth(t *testing.T) {
	u := servingUniverse(t)
	e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(8), shard.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := srv.Producer(0)
	if err := pr.OfferBatch(servingValues(500)); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	h := srv.Health()
	if h.Supervised {
		t.Fatalf("unsupervised session reports Supervised")
	}
	rounds := 0
	for _, sh := range h.Shards {
		rounds += sh.Rounds
	}
	if rounds != 500 || h.Degraded() {
		t.Fatalf("health = %+v, want 500 healthy rounds", h)
	}
	srv.Close()
}

// TestServeContextOffers pins the ctx-aware producer surface: the context
// variants behave like the blocking ones when backpressure clears, and
// every variant reports ErrServingClosed after Close.
func TestServeContextOffers(t *testing.T) {
	u := servingUniverse(t)
	e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(8), shard.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := srv.Producer(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := pr.OfferContext(ctx, 11); err != nil {
		t.Fatal(err)
	}
	if n, err := pr.OfferBatchContext(ctx, servingValues(100)); err != nil || n != 100 {
		t.Fatalf("OfferBatchContext = (%d, %v), want (100, nil)", n, err)
	}
	// Encoding errors stay atomic: nothing submitted, error is the codec's.
	if _, err := pr.OfferBatchContext(ctx, []int64{5, 1 << 20}); err == nil {
		t.Fatal("OfferBatchContext accepted an out-of-universe element")
	}
	srv.Flush()
	if got := srv.Rounds(); got != 101 {
		t.Fatalf("rounds = %d, want 101", got)
	}
	srv.Close()
	if err := pr.Offer(3); !errors.Is(err, shard.ErrServingClosed) {
		t.Fatalf("Offer after Close = %v, want ErrServingClosed", err)
	}
	if err := pr.OfferContext(ctx, 3); !errors.Is(err, shard.ErrServingClosed) {
		t.Fatalf("OfferContext after Close = %v, want ErrServingClosed", err)
	}
	if err := pr.OfferBatch([]int64{3}); !errors.Is(err, shard.ErrServingClosed) {
		t.Fatalf("OfferBatch after Close = %v, want ErrServingClosed", err)
	}
	if n, err := pr.OfferBatchContext(ctx, []int64{3}); n != 0 || !errors.Is(err, shard.ErrServingClosed) {
		t.Fatalf("OfferBatchContext after Close = (%d, %v), want (0, ErrServingClosed)", n, err)
	}
}

// TestServeCloseContext pins the public drain-deadline surface on the
// happy path: CloseContext drains, closes the session, and agrees with the
// idempotent Close.
func TestServeCloseContext(t *testing.T) {
	u := servingUniverse(t)
	e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(8), shard.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e.Serve(nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := srv.Producer(0)
	if err := pr.OfferBatch(servingValues(300)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ep, err := srv.CloseContext(ctx)
	if err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	if ep.Applied != 300 {
		t.Fatalf("drain epoch applied %d, want 300", ep.Applied)
	}
	if again := srv.Close(); again != ep {
		t.Fatalf("Close after CloseContext = %+v, want the same epoch %+v", again, ep)
	}
	// The engine is back to serial use.
	if _, err := e.OfferBatch(servingValues(10)); err != nil {
		t.Fatalf("serial OfferBatch after CloseContext: %v", err)
	}
	if got := e.Rounds(); got != 310 {
		t.Fatalf("rounds = %d, want 310", got)
	}
}

// TestServeCloseFiresOnEpochOnce pins the close half of OnEpoch's promise
// (the final drain of the first close to complete): whichever path closes
// the session — Close, CloseContext, a cancelled Serve ctx, or all three
// at once — OnEpoch fires exactly once with the drain epoch, and every
// close, including later ones and ones whose ctx has expired, returns that
// epoch.
func TestServeCloseFiresOnEpochOnce(t *testing.T) {
	u := servingUniverse(t)
	for _, path := range []string{"Close", "CloseContext", "cancel", "concurrent"} {
		t.Run(path, func(t *testing.T) {
			var mu sync.Mutex
			var fired []shard.Epoch
			e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(8), shard.WithWorkers(1),
				shard.WithPipeline(shard.PipelineConfig{OnEpoch: func(ep shard.Epoch) {
					mu.Lock()
					fired = append(fired, ep)
					mu.Unlock()
				}}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv, err := e.Serve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			pr, _ := srv.Producer(0)
			if err := pr.OfferBatch(servingValues(300)); err != nil {
				t.Fatal(err)
			}
			closeContext := func() shard.Epoch {
				ep, err := srv.CloseContext(context.Background())
				if err != nil {
					t.Errorf("CloseContext: %v", err)
				}
				return ep
			}
			var returned []shard.Epoch
			switch path {
			case "Close":
				returned = append(returned, srv.Close())
			case "CloseContext":
				returned = append(returned, closeContext())
			case "cancel":
				cancel()
				// The watcher closes asynchronously; OnEpoch marks its end.
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) { //robust:nondet wall-clock wait for the async close; never reaches sampler state
					mu.Lock()
					n := len(fired)
					mu.Unlock()
					if n > 0 {
						break
					}
					if time.Now().After(deadline) { //robust:nondet wall-clock wait for the async close; never reaches sampler state
						t.Fatal("the cancelled session never fired OnEpoch")
					}
				}
			case "concurrent":
				var wg sync.WaitGroup
				eps := make([]shard.Epoch, 2)
				wg.Add(3)
				go func() { defer wg.Done(); eps[0] = srv.Close() }()
				go func() { defer wg.Done(); eps[1] = closeContext() }()
				go func() { defer wg.Done(); cancel() }()
				wg.Wait()
				returned = append(returned, eps...)
			}
			returned = append(returned, srv.Close(), closeContext())
			// A completed drain wins over an expired ctx: later closes with
			// one still succeed and return the drain epoch.
			done, stop := context.WithCancel(context.Background())
			stop()
			for range 8 {
				ep, err := srv.CloseContext(done)
				if err != nil {
					t.Fatalf("CloseContext with an expired ctx after the drain: %v", err)
				}
				returned = append(returned, ep)
			}

			mu.Lock()
			got := slices.Clone(fired)
			mu.Unlock()
			if len(got) != 1 {
				t.Fatalf("OnEpoch fired %d times on close, want exactly once: %+v", len(got), got)
			}
			if got[0].Applied != 300 {
				t.Fatalf("OnEpoch drain epoch applied %d, want 300", got[0].Applied)
			}
			for i, ep := range returned {
				if ep != got[0] {
					t.Fatalf("close %d returned %+v, want the drain epoch %+v", i, ep, got[0])
				}
			}
		})
	}
}

// TestServeRepeatedCloseKeepsCounters pins that only the first completed
// drain syncs the engine's counters: a session closed by Close, or by
// CloseContext racing a cancelled Serve ctx, then used serially, then
// closed again by either path must keep the serial rounds — Rounds and
// the per-shard rounds both sum to everything ingested.
func TestServeRepeatedCloseKeepsCounters(t *testing.T) {
	u := servingUniverse(t)
	for _, first := range []string{"Close", "concurrent"} {
		for _, second := range []string{"Close", "CloseContext"} {
			t.Run(first+"/"+second, func(t *testing.T) {
				e, err := shard.New(u, shard.WithShards(3), shard.WithReservoir(8), shard.WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				srv, err := e.Serve(ctx)
				if err != nil {
					t.Fatal(err)
				}
				pr, _ := srv.Producer(0)
				if err := pr.OfferBatch(servingValues(300)); err != nil {
					t.Fatal(err)
				}
				if first == "Close" {
					srv.Close()
				} else {
					var wg sync.WaitGroup
					wg.Add(2)
					go func() { defer wg.Done(); cancel() }()
					go func() {
						defer wg.Done()
						if _, err := srv.CloseContext(context.Background()); err != nil {
							t.Errorf("CloseContext: %v", err)
						}
					}()
					wg.Wait()
				}
				if _, err := e.OfferBatch(servingValues(10)); err != nil {
					t.Fatalf("serial OfferBatch after close: %v", err)
				}
				if second == "Close" {
					srv.Close()
				} else if _, err := srv.CloseContext(context.Background()); err != nil {
					t.Fatalf("second CloseContext: %v", err)
				}
				sum := 0
				for i := range e.NumShards() {
					n, err := e.ShardRounds(i)
					if err != nil {
						t.Fatal(err)
					}
					sum += n
				}
				if got := e.Rounds(); got != 310 || sum != 310 {
					t.Fatalf("after the second close Rounds = %d and shard rounds sum to %d, want 310 and 310", got, sum)
				}
			})
		}
	}
}

// TestWithPipelineValidation pins option validation for the new knobs.
func TestWithPipelineValidation(t *testing.T) {
	u := servingUniverse(t)
	if _, err := shard.New(u, shard.WithReservoir(8),
		shard.WithPipeline(shard.PipelineConfig{CheckpointEvery: -1})); err == nil {
		t.Fatal("New accepted a negative checkpoint interval")
	}
}
