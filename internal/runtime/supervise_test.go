package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// startSupervised builds a 1-shard live pipeline with the given hooks and a
// collecting Apply; ChunkCap 1 makes every applied chunk a single element,
// so tests can reason about chunk boundaries exactly.
func startSupervised(t *testing.T, before func(int, int, []int64), onPanic func(int, any, []int64, int) Disposition, applyWrap func(apply func(int, []int64)) func(int, []int64)) (*Pipeline, func() [][]int64) {
	t.Helper()
	apply, got := collectingApply(1)
	if applyWrap != nil {
		apply = applyWrap(apply)
	}
	p, err := Start(Config{
		Shards:       1,
		Producers:    1,
		RingSize:     64,
		ChunkCap:     1,
		RouteLive:    routeEach(func(int64) int { return 0 }),
		Apply:        apply,
		BeforeApply:  before,
		OnApplyPanic: onPanic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, got
}

// TestSupervisedRetryRecovers: a one-shot injected panic is recovered, the
// chunk is retried, and nothing is lost or double-applied.
func TestSupervisedRetryRecovers(t *testing.T) {
	var crashed atomic.Bool
	var retries atomic.Uint64
	before := func(shard, attempt int, xs []int64) {
		if attempt == 0 && crashed.CompareAndSwap(false, true) {
			panic("injected crash")
		}
	}
	onPanic := func(shard int, v any, xs []int64, attempt int) Disposition {
		retries.Add(1)
		return Retry
	}
	p, got := startSupervised(t, before, onPanic, nil)
	pr := p.Producer(0)
	const n = 100
	for i := 0; i < n; i++ {
		if err := pr.Offer(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	p.Close()
	if retries.Load() != 1 {
		t.Fatalf("supervisor saw %d panics, want 1", retries.Load())
	}
	if p.Lost() != 0 {
		t.Fatalf("Lost = %d, want 0", p.Lost())
	}
	xs := got()[0]
	if len(xs) != n {
		t.Fatalf("applied %d elements, want %d (no loss, no double-apply)", len(xs), n)
	}
	seen := make(map[int64]bool, n)
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("element %d applied twice", x)
		}
		seen[x] = true
	}
}

// TestSupervisedDropAccountsLoss: a chunk that fails every retry is dropped
// after the supervisor gives up; it counts as lost AND as consumed (Flush
// and Close terminate), and every other element is applied.
func TestSupervisedDropAccountsLoss(t *testing.T) {
	const poison = int64(999) // outside the 1..n stream values
	onPanic := func(shard int, v any, xs []int64, attempt int) Disposition {
		if attempt >= 2 {
			return Drop
		}
		return Retry
	}
	wrap := func(apply func(int, []int64)) func(int, []int64) {
		return func(s int, xs []int64) {
			for _, x := range xs {
				if x == poison {
					panic("poisoned batch")
				}
			}
			apply(s, xs)
		}
	}
	p, got := startSupervised(t, nil, onPanic, wrap)
	pr := p.Producer(0)
	const n = 50
	for i := 0; i < n; i++ {
		x := int64(i + 1)
		if i == 17 {
			x = poison
		}
		if err := pr.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush() // must not hang: the dropped chunk still counts as consumed
	ep := p.Close()
	if ep.Applied != n {
		t.Fatalf("barrier applied = %d, want %d (drops count as consumed)", ep.Applied, n)
	}
	if p.Lost() != 1 || p.ShardLost(0) != 1 {
		t.Fatalf("Lost = %d / ShardLost = %d, want 1/1", p.Lost(), p.ShardLost(0))
	}
	if len(got()[0]) != n-1 {
		t.Fatalf("ingested %d elements, want %d", len(got()[0]), n-1)
	}
}

// TestSupervisedPristineRetry: a BeforeApply hook that corrupts the chunk
// in place must not leak the corruption into the retry — the pipeline
// restores the pristine chunk first.
func TestSupervisedPristineRetry(t *testing.T) {
	var corrupted atomic.Bool
	before := func(shard, attempt int, xs []int64) {
		if attempt == 0 && corrupted.CompareAndSwap(false, true) {
			for i := range xs {
				xs[i] = -1
			}
		}
	}
	onPanic := func(int, any, []int64, int) Disposition { return Retry }
	wrap := func(apply func(int, []int64)) func(int, []int64) {
		return func(s int, xs []int64) {
			for _, x := range xs {
				if x < 0 {
					panic("validation: corrupt chunk")
				}
			}
			apply(s, xs)
		}
	}
	p, got := startSupervised(t, before, onPanic, wrap)
	pr := p.Producer(0)
	const n = 20
	for i := 0; i < n; i++ {
		if err := pr.Offer(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	p.Close()
	if !corrupted.Load() {
		t.Fatal("corruption hook never fired")
	}
	xs := got()[0]
	if len(xs) != n {
		t.Fatalf("applied %d, want %d", len(xs), n)
	}
	for _, x := range xs {
		if x < 0 {
			t.Fatal("corrupted value reached shard state on retry")
		}
	}
}

// TestOfferCtxBackpressure: with the consumer wedged and the ring full,
// OfferCtx gives up at its deadline with an error matching both
// ErrBackpressure and the ctx error — it never blocks forever.
func TestOfferCtxBackpressure(t *testing.T) {
	gate := make(chan struct{})
	apply, _ := collectingApply(1)
	p, err := Start(Config{
		Shards:    1,
		Producers: 1,
		RingSize:  2,
		ChunkCap:  4,
		RouteLive: routeEach(func(int64) int { return 0 }),
		Apply: func(s int, xs []int64) {
			<-gate // wedged consumer holding the shard lock
			apply(s, xs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Producer(0)
	// Fill the pipeline: the consumer wedges on the first chunk, then the
	// ring backs up. Some offers land; eventually one must time out.
	sawBackpressure := false
	for i := 0; i < 32; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := pr.OfferCtx(ctx, int64(i+1))
		cancel()
		if err != nil {
			if !errors.Is(err, ErrBackpressure) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("OfferCtx error = %v, want ErrBackpressure joined with DeadlineExceeded", err)
			}
			sawBackpressure = true
			break
		}
	}
	if !sawBackpressure {
		t.Fatal("ring never filled — OfferCtx never hit backpressure")
	}
	close(gate)
	p.Close()
}

// TestCloseCtxDrainDeadline: with a consumer wedged mid-apply, CloseCtx
// returns ErrDrainTimeout at its deadline instead of hanging; the drain
// finishes in the background once the consumer unwedges, and a plain Close
// then observes the fully drained pipeline.
func TestCloseCtxDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	apply, got := collectingApply(1)
	p, err := Start(Config{
		Shards:    1,
		Producers: 1,
		RingSize:  64,
		ChunkCap:  4,
		RouteLive: routeEach(func(int64) int { return 0 }),
		Apply: func(s int, xs []int64) {
			select {
			case <-gate:
			default:
				<-gate
			}
			apply(s, xs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Producer(0)
	const n = 16
	for i := 0; i < n; i++ {
		if err := pr.Offer(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.CloseCtx(ctx); !errors.Is(err, ErrDrainTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseCtx error = %v, want ErrDrainTimeout joined with DeadlineExceeded", err)
	}
	close(gate) // unwedge; the background drain completes
	ep := p.Close()
	if ep.Applied != n {
		t.Fatalf("post-drain applied = %d, want %d", ep.Applied, n)
	}
	if len(got()[0]) != n {
		t.Fatalf("ingested %d elements, want %d", len(got()[0]), n)
	}
}

// TestTryWithShard: a held shard lock makes TryWithShard report false
// within its bound instead of blocking; a free lock runs fn.
func TestTryWithShard(t *testing.T) {
	apply, _ := collectingApply(1)
	p, err := Start(Config{
		Shards:    1,
		Producers: 1,
		RouteLive: routeEach(func(int64) int { return 0 }),
		Apply:     apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ran := false
	if !p.TryWithShard(0, 0, func() { ran = true }) || !ran {
		t.Fatal("TryWithShard on a free lock did not run fn")
	}

	hold := make(chan struct{})
	held := make(chan struct{})
	go p.WithShard(0, func() {
		close(held)
		<-hold
	})
	<-held
	start := time.Now() //robust:nondet measures bounded-wait latency, not sampler state
	if p.TryWithShard(0, 10*time.Millisecond, func() {}) {
		t.Fatal("TryWithShard acquired a held lock")
	}
	if waited := time.Since(start); waited > time.Second { //robust:nondet measures bounded-wait latency, not sampler state

		t.Fatalf("TryWithShard waited %v, want bounded by ~10ms", waited)
	}
	close(hold)
}

// TestOfferAfterClose: every offer variant reports ErrClosed after
// shutdown instead of racing or panicking.
func TestOfferAfterClose(t *testing.T) {
	apply, _ := collectingApply(1)
	p, err := Start(Config{
		Shards:    1,
		Producers: 1,
		RouteLive: routeEach(func(int64) int { return 0 }),
		Apply:     apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	pr := p.Producer(0)
	if err := pr.Offer(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Offer after close = %v, want ErrClosed", err)
	}
	if err := pr.OfferBatch([]int64{1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("OfferBatch after close = %v, want ErrClosed", err)
	}
	if err := pr.OfferCtx(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("OfferCtx after close = %v, want ErrClosed", err)
	}
	if n, err := pr.OfferBatchCtx(context.Background(), []int64{1}); n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("OfferBatchCtx after close = (%d, %v), want (0, ErrClosed)", n, err)
	}
	// Close after Close is a no-op returning a fresh epoch.
	p.Close()
}
