package runtime

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectingApply returns an Apply that appends per-shard (no locking
// needed: Apply is already serialized per shard by the pipeline) plus an
// accessor for the totals.
func collectingApply(shards int) (func(int, []int64), func() [][]int64) {
	got := make([][]int64, shards)
	return func(s int, xs []int64) {
			got[s] = append(got[s], xs...)
		}, func() [][]int64 {
			return got
		}
}

// Close is CloseCtx without a deadline, the tests' shorthand.
func (p *Pipeline) Close() Epoch {
	ep, _ := p.CloseCtx(context.Background())
	return ep
}

// routeEach lifts a per-element route into Config.RouteLive's run form.
func routeEach(route func(x int64) int) func(int, []int64, []int) {
	return func(_ int, xs []int64, dst []int) {
		for i, x := range xs {
			dst[i] = route(x)
		}
	}
}

func TestPipelineDeterministicRoundRobinMerge(t *testing.T) {
	// 3 lanes stripe a known stream; the sequenced router must rebuild it
	// in exact global order, whatever the goroutine scheduling was.
	const P, n = 3, 9000
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = int64(i)
	}
	var routedOrder []int64
	apply, got := collectingApply(2)
	p, err := Start(Config{
		Shards:        2,
		Producers:     P,
		RingSize:      64,
		ChunkCap:      16,
		Deterministic: true,
		RouteSerial: func(x int64) int {
			routedOrder = append(routedOrder, x) // router goroutine only
			return int(x) % 2
		},
		Apply: apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(P)
	for lane := 0; lane < P; lane++ {
		go func(lane int) {
			defer wg.Done()
			pr := p.Producer(lane)
			for i := lane; i < n; i += P {
				if err := pr.Offer(stream[i]); err != nil {
					t.Errorf("Offer: %v", err)
					return
				}
			}
			pr.Close()
		}(lane)
	}
	wg.Wait()
	ep := p.Flush()
	if ep.Applied != n {
		t.Fatalf("Flush epoch applied = %d, want %d", ep.Applied, n)
	}
	p.Close()
	if !slices.Equal(routedOrder, stream) {
		t.Fatalf("router did not rebuild the stream in order (first divergence near %d)", firstDiff(routedOrder, stream))
	}
	for s, xs := range got() {
		for _, x := range xs {
			if int(x)%2 != s {
				t.Fatalf("shard %d received misrouted element %d", s, x)
			}
		}
	}
}

func firstDiff(a, b []int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestPipelineLiveConservation(t *testing.T) {
	// 4 producers push concurrently through a live (producer-side) router;
	// every element must be applied exactly once to its routed shard.
	const P, perLane, S = 4, 25000, 3
	apply, got := collectingApply(S)
	p, err := Start(Config{
		Shards:    S,
		Producers: P,
		RingSize:  128,
		RouteLive: routeEach(func(x int64) int { return int(uint64(x) % S) }),
		Apply:     apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(P)
	for lane := 0; lane < P; lane++ {
		go func(lane int) {
			defer wg.Done()
			pr := p.Producer(lane)
			batch := make([]int64, 0, 50)
			for i := 0; i < perLane; i++ {
				batch = append(batch, int64(lane*perLane+i))
				if len(batch) == cap(batch) {
					if err := pr.OfferBatch(batch); err != nil {
						t.Errorf("OfferBatch: %v", err)
						return
					}
					batch = batch[:0]
				}
			}
			if err := pr.OfferBatch(batch); err != nil {
				t.Errorf("OfferBatch: %v", err)
			}
		}(lane)
	}
	wg.Wait()
	ep := p.Flush()
	if ep.Applied != P*perLane {
		t.Fatalf("applied %d, want %d", ep.Applied, P*perLane)
	}
	if off := p.Offered(); off != P*perLane {
		t.Fatalf("offered %d, want %d", off, P*perLane)
	}
	seen := make([]bool, P*perLane)
	for s, xs := range got() {
		for _, x := range xs {
			if int(uint64(x)%S) != s {
				t.Fatalf("shard %d holds misrouted element %d", s, x)
			}
			if seen[x] {
				t.Fatalf("element %d applied twice", x)
			}
			seen[x] = true
		}
	}
	for x, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost", x)
		}
	}
	p.Close()
}

func TestPipelineFlushBarrierDuringIngest(t *testing.T) {
	// Flush taken mid-stream must cover exactly the elements whose Offer
	// returned before it; later elements may or may not be included, but
	// the barrier count can never run ahead of what was offered.
	var applied atomic.Int64
	p, err := Start(Config{
		Shards:    2,
		Producers: 1,
		RouteLive: routeEach(func(x int64) int { return int(x) & 1 }),
		Apply:     func(_ int, xs []int64) { applied.Add(int64(len(xs))) },
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Producer(0)
	for i := 0; i < 1000; i++ {
		if err := pr.Offer(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ep := p.Flush()
	if got := applied.Load(); got < 1000 {
		t.Fatalf("after Flush only %d of 1000 applied", got)
	}
	if ep.Applied < 1000 {
		t.Fatalf("epoch applied = %d, want >= 1000", ep.Applied)
	}
	if ep2 := p.Flush(); ep2.Seq <= ep.Seq {
		t.Fatalf("epoch sequence did not advance: %d then %d", ep.Seq, ep2.Seq)
	}
	p.Close()
}

func TestPipelineWithShardExcludesApply(t *testing.T) {
	// While WithShard holds a shard, Apply must not run for that shard;
	// the probe watches for overlap via an atomic flag.
	var inApply, overlap atomic.Bool
	p, err := Start(Config{
		Shards:    1,
		Producers: 1,
		RouteLive: routeEach(func(int64) int { return 0 }),
		Apply: func(_ int, xs []int64) {
			inApply.Store(true)
			for range xs {
			}
			inApply.Store(false)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr := p.Producer(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := pr.Offer(int64(i)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		p.WithShard(0, func() {
			if inApply.Load() {
				overlap.Store(true)
			}
		})
	}
	close(stop)
	wg.Wait()
	p.Close()
	if overlap.Load() {
		t.Fatal("Apply observed running inside WithShard")
	}
}

func TestPipelineCloseDrainsAndRejects(t *testing.T) {
	apply, got := collectingApply(1)
	p, err := Start(Config{
		Shards:    1,
		Producers: 1,
		RouteLive: routeEach(func(int64) int { return 0 }),
		Apply:     apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Producer(0)
	for i := 0; i < 500; i++ {
		if err := pr.Offer(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ep := p.Close()
	if ep.Applied != 500 {
		t.Fatalf("Close applied %d, want 500", ep.Applied)
	}
	if len(got()[0]) != 500 {
		t.Fatalf("shard holds %d elements after Close, want 500", len(got()[0]))
	}
	if err := pr.Offer(1); err != ErrClosed {
		t.Fatalf("Offer after Close = %v, want ErrClosed", err)
	}
	if err := pr.OfferBatch([]int64{1}); err != ErrClosed {
		t.Fatalf("OfferBatch after Close = %v, want ErrClosed", err)
	}
	// Idempotent.
	p.Close()
}

func TestPipelineFreezeConsistentCut(t *testing.T) {
	// Under Freeze, per-shard applied counts must not move.
	const S = 3
	counts := make([]atomic.Int64, S)
	p, err := Start(Config{
		Shards:    S,
		Producers: 2,
		RouteLive: routeEach(func(x int64) int { return int(uint64(x) % S) }),
		Apply:     func(s int, xs []int64) { counts[s].Add(int64(len(xs))) },
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			pr := p.Producer(lane)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if pr.Offer(int64(i)) != nil {
					return
				}
			}
		}(lane)
	}
	for i := 0; i < 100; i++ {
		var before, after [S]int64
		p.Freeze(func() {
			for s := range counts {
				before[s] = counts[s].Load()
			}
			for s := range counts {
				after[s] = counts[s].Load()
			}
		})
		if before != after {
			t.Fatalf("applied counts moved during Freeze: %v -> %v", before, after)
		}
	}
	close(stop)
	wg.Wait()
	p.Close()
}

// TestPipelineOfferPaths runs each of the four offers — Offer, OfferCtx,
// OfferBatch, OfferBatchCtx, all one lane body — through live pipelines
// with 1 and 3 shards and a deterministic one, from 2 lanes striping one
// stream over small rings so the shared wait loop runs. After Flush every
// element must sit on its routed shard exactly once, in lane order (the
// deterministic merge rebuilds the stream's order exactly), with
// Offered() == Applied().
func TestPipelineOfferPaths(t *testing.T) {
	const P, n, batch = 2, 3000, 37
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = int64(i)
	}
	offers := []struct {
		name  string
		offer func(pr *Producer, xs []int64) error
	}{
		{"Offer", func(pr *Producer, xs []int64) error {
			for _, x := range xs {
				if err := pr.Offer(x); err != nil {
					return err
				}
			}
			return nil
		}},
		{"OfferCtx", func(pr *Producer, xs []int64) error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for _, x := range xs {
				if err := pr.OfferCtx(ctx, x); err != nil {
					return err
				}
			}
			return nil
		}},
		{"OfferBatch", func(pr *Producer, xs []int64) error {
			for len(xs) > 0 {
				k := min(batch, len(xs))
				if err := pr.OfferBatch(xs[:k]); err != nil {
					return err
				}
				xs = xs[k:]
			}
			return nil
		}},
		{"OfferBatchCtx", func(pr *Producer, xs []int64) error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for len(xs) > 0 {
				k := min(batch, len(xs))
				if m, err := pr.OfferBatchCtx(ctx, xs[:k]); err != nil || m != k {
					return fmt.Errorf("accepted %d of %d: %v", m, k, err)
				}
				xs = xs[k:]
			}
			return nil
		}},
	}
	modes := []struct {
		name          string
		shards        int
		deterministic bool
	}{
		{"live/S=1", 1, false},
		{"live/S=3", 3, false},
		{"deterministic/S=3", 3, true},
	}
	for _, mode := range modes {
		S := mode.shards
		route := func(x int64) int { return int(uint64(x) % uint64(S)) }
		for _, o := range offers {
			name := mode.name + "/" + o.name
			apply, got := collectingApply(S)
			cfg := Config{Shards: S, Producers: P, RingSize: 16, ChunkCap: 8, Apply: apply,
				Deterministic: mode.deterministic}
			if mode.deterministic {
				cfg.RouteSerial = route
			} else {
				cfg.RouteLive = routeEach(route)
			}
			p, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(P)
			for lane := 0; lane < P; lane++ {
				go func(lane int) {
					defer wg.Done()
					var xs []int64
					for i := lane; i < n; i += P {
						xs = append(xs, stream[i])
					}
					if err := o.offer(p.Producer(lane), xs); err != nil {
						t.Errorf("%s: lane %d: %v", name, lane, err)
					}
					p.Producer(lane).Close()
				}(lane)
			}
			wg.Wait()
			if ep := p.Flush(); ep.Applied != n || p.Offered() != n || p.Applied() != n {
				t.Fatalf("%s: offered %d, applied %d (epoch %d), want %d", name, p.Offered(), p.Applied(), ep.Applied, n)
			}
			for s, xs := range got() {
				var want []int64
				for _, x := range stream {
					if route(x) == s {
						want = append(want, x)
					}
				}
				have := xs
				if !mode.deterministic {
					// Live mode promises only per-lane FIFO per shard.
					last := make([]int64, P)
					for _, x := range xs {
						lane := x % P
						if x < last[lane] {
							t.Fatalf("%s: shard %d: lane %d order violated: %d after %d", name, s, lane, x, last[lane])
						}
						last[lane] = x
					}
					have = slices.Clone(xs)
					slices.Sort(have)
				}
				if !slices.Equal(have, want) {
					t.Fatalf("%s: shard %d holds %d elements, want %d in routed order", name, s, len(have), len(want))
				}
			}
			p.Close()
		}
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	apply := func(int, []int64) {}
	live := routeEach(func(int64) int { return 0 })
	for name, cfg := range map[string]Config{ //robust:nondet subtest table; each case is independent of order

		"no shards":     {Shards: 0, Producers: 1, RouteLive: live, Apply: apply},
		"no producers":  {Shards: 1, Producers: 0, RouteLive: live, Apply: apply},
		"no apply":      {Shards: 1, Producers: 1, RouteLive: live},
		"no live route": {Shards: 1, Producers: 1, Apply: apply},
		"no det route":  {Shards: 1, Producers: 1, Deterministic: true, Apply: apply},
	} {
		if _, err := Start(cfg); err == nil {
			t.Errorf("%s: Start accepted invalid config", name)
		}
	}
}

// spinSink keeps handoffWork's result observable, so the loop is not
// optimized away.
var spinSink atomic.Uint64

// handoffWork is a fixed amount of arithmetic with no memory traffic, so a
// chunk costs about the same with and without the race detector.
func handoffWork(n int) {
	h := uint64(1)
	for i := 0; i < n; i++ {
		h = h*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(h)
}

// TestPipelineReaderHandoff pins the reader handoff: a reader asking for a
// saturated shard's lock gets it after the chunk in progress, not after the
// hundreds of chunks a consumer that re-locks at once can apply while the
// reader waits. One shard is kept saturated, each Apply does a fixed amount
// of work, and each of 300 reads counts the chunks applied between its call
// and its fn; its 99th percentile must be at most 4 chunks. (The bound is
// on the percentile, not the maximum: an OS that deschedules the reader's
// thread between its count and its call, seen about once in 3,000 reads
// under -race on a 2-vCPU VM, makes that one read count every chunk
// applied meanwhile. A consumer that re-locks at once puts the median
// itself far above the bound.) TryWithShard gets a QueryWait of a few
// chunk-times. Where it gives up (on a loaded machine a descheduled
// consumer can stretch the chunk in progress past the wait) the count runs
// to its return, so a consumer that re-locked for chunk after chunk fails
// the bound either way; at least one read must get in.
func TestPipelineReaderHandoff(t *testing.T) {
	const (
		reads    = 300
		work     = 50_000 // iterations of handoffWork per chunk
		maxDelay = 4      // chunks, at the 99th percentile
	)
	for _, mode := range []string{"WithShard", "TryWithShard"} {
		t.Run(mode, func(t *testing.T) {
			var chunks atomic.Uint64
			p, err := Start(Config{
				Shards:    1,
				Producers: 1,
				RingSize:  1024,
				ChunkCap:  64,
				RouteLive: routeEach(func(int64) int { return 0 }),
				Apply: func(int, []int64) {
					handoffWork(work)
					chunks.Add(1)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				pr := p.Producer(0)
				batch := make([]int64, 256)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := pr.OfferBatch(batch); err != nil {
						return
					}
				}
			}()
			defer func() {
				close(stop)
				wg.Wait()
				p.Close()
			}()

			// A chunk-time, measured under the same load the reads see.
			for chunks.Load() < 4 {
				time.Sleep(100 * time.Microsecond)
			}
			c0, t0 := chunks.Load(), time.Now() //robust:nondet sizes the bounded wait, never reaches pipeline state
			for chunks.Load() < c0+20 {
				time.Sleep(100 * time.Microsecond)
			}
			chunkTime := time.Since(t0) / time.Duration(chunks.Load()-c0) //robust:nondet sizes the bounded wait, never reaches pipeline state
			queryWait := 8 * chunkTime

			// Nothing allocates between reading before and the call, so no
			// GC assist can delay the reader's announcement.
			delays := make([]uint64, 0, reads)
			gaveUp := 0
			var before uint64
			fn := func() { delays = append(delays, chunks.Load()-before) }
			for i := 0; i < reads; i++ {
				before = chunks.Load()
				if mode == "WithShard" {
					p.WithShard(0, fn)
				} else if !p.TryWithShard(0, queryWait, fn) {
					delays = append(delays, chunks.Load()-before)
					gaveUp++
				}
				time.Sleep(100 * time.Microsecond)
			}
			slices.Sort(delays)
			q := func(f float64) uint64 { return delays[int(f*float64(len(delays)-1))] }
			t.Logf("chunks between call and fn: p50 %d, p90 %d, p99 %d, max %d (chunk-time %v, %d reads gave up after %v)",
				q(0.5), q(0.9), q(0.99), q(1), chunkTime, gaveUp, queryWait)
			if q(0.99) > maxDelay || gaveUp == reads {
				t.Fatalf("readers waited p99 %d chunks for the lock (p90 %d, max %d), want <= %d; %d of %d reads gave up",
					q(0.99), q(0.9), q(1), maxDelay, gaveUp, reads)
			}
		})
	}
}
