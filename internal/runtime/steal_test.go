package runtime

import (
	"runtime"
	"sync"
	"testing"
)

// Stolen returns the number of elements applied by a consumer other than
// the shard's own — an observability counter for the work-stealing path
// (always 0 when routing is balanced enough that no consumer goes idle).
func (p *Pipeline) Stolen() uint64 { return p.stolen.Load() }

// TestRingPushBatchFIFO drives PushBatch through wrap-arounds interleaved
// with partial drains and checks the ring behaves exactly like per-element
// pushes: same values, same order, same full/empty accounting.
func TestRingPushBatchFIFO(t *testing.T) {
	r := NewRing(8)
	next := int64(0)
	popped := int64(0)
	offer := func(k int) int {
		xs := make([]int64, k)
		for i := range xs {
			xs[i] = next + int64(i)
		}
		n := r.PushBatch(xs)
		next += int64(n)
		return n
	}
	drain := func(k int) {
		buf := make([]int64, k)
		n := r.PopInto(buf)
		for i := 0; i < n; i++ {
			if buf[i] != popped {
				t.Fatalf("popped %d, want %d", buf[i], popped)
			}
			popped++
		}
	}
	if n := offer(5); n != 5 {
		t.Fatalf("PushBatch(5) on empty ring took %d", n)
	}
	if n := offer(6); n != 3 {
		t.Fatalf("PushBatch(6) with 3 free took %d, want 3", n)
	}
	if n := offer(1); n != 0 {
		t.Fatalf("PushBatch on full ring took %d, want 0", n)
	}
	drain(4)
	// Wrap the cursor several times with mixed batch sizes.
	for i := 0; i < 50; i++ {
		offer(3)
		drain(2)
	}
	drain(16)
	if got := next - popped; got != int64(r.Backlog()) {
		t.Fatalf("backlog %d, want %d", r.Backlog(), next-popped)
	}
	drain(int(r.Backlog()))
	if !r.Empty() {
		t.Fatal("drained ring not Empty")
	}
	if r.Pushed() != uint64(next) {
		t.Fatalf("Pushed = %d, want %d", r.Pushed(), next)
	}
}

// TestRingPushBatchConcurrent checks conservation and per-producer FIFO
// when several goroutines push batches of varying sizes against one
// consumer on a small ring.
func TestRingPushBatchConcurrent(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			xs := make([]int64, 0, 37)
			flush := func() {
				rest := xs
				for len(rest) > 0 {
					n := r.PushBatch(rest)
					if n == 0 {
						runtime.Gosched()
						continue
					}
					rest = rest[n:]
				}
				xs = xs[:0]
			}
			for i := 0; i < perProducer; i++ {
				xs = append(xs, int64(p*perProducer+i))
				if len(xs) == cap(xs) {
					flush()
				}
			}
			flush()
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := make([]bool, producers*perProducer)
		lastPerProducer := make([]int64, producers)
		for i := range lastPerProducer {
			lastPerProducer[i] = -1
		}
		for count := 0; count < producers*perProducer; {
			v, ok := r.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v < 0 || v >= producers*perProducer {
				t.Errorf("popped out-of-range value %d", v)
				return
			}
			if seen[v] {
				t.Errorf("value %d popped twice", v)
				return
			}
			seen[v] = true
			p := v / perProducer
			if v <= lastPerProducer[p] {
				t.Errorf("producer %d order violated: %d after %d", p, v, lastPerProducer[p])
				return
			}
			lastPerProducer[p] = v
			count++
		}
	}()
	wg.Wait()
	<-done
	if !r.Empty() {
		t.Fatal("ring not empty after full drain")
	}
}

// TestPipelineSkewedRoutingLiveness routes ~90% of the traffic to shard 0
// through a live batch router and checks three things: the pipeline stays
// live and conserves every element (reconciled per shard against what the
// router decided), idle consumers actually engage the work-stealing path,
// and per-shard apply order is preserved even when a stolen chunk does the
// applying. Run under -race this also exercises the pop-under-shard-lock
// handoff between consumers.
func TestPipelineSkewedRoutingLiveness(t *testing.T) {
	const S, P = 4, 2
	const perLane = 1 << 16
	route := func(x int64) int {
		if x%10 != 0 {
			return 0 // ~90% of traffic
		}
		return 1 + int(uint64(x)%(S-1))
	}
	apply, got := collectingApply(S)
	p, err := Start(Config{
		Shards:    S,
		Producers: P,
		RingSize:  64, // small ring: shard 0 backs up, consumers 1..3 idle
		ChunkCap:  32,
		RouteLive: routeEach(route),
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
			batch := make([]int64, 0, 111)
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
	// Round-counter reconciliation: every element landed exactly once, on
	// the shard the router chose, in per-lane order within each shard.
	seen := make([]bool, P*perLane)
	lastPerLane := make([][]int64, S)
	for s := range lastPerLane {
		lastPerLane[s] = make([]int64, P)
		for l := range lastPerLane[s] {
			lastPerLane[s][l] = -1
		}
	}
	for s, xs := range got() {
		for _, x := range xs {
			if route(x) != s {
				t.Fatalf("shard %d holds misrouted element %d", s, x)
			}
			if seen[x] {
				t.Fatalf("element %d applied twice", x)
			}
			seen[x] = true
			lane := int(x) / perLane
			if x <= lastPerLane[s][lane] {
				t.Fatalf("shard %d: lane %d order violated: %d after %d", s, lane, x, lastPerLane[s][lane])
			}
			lastPerLane[s][lane] = x
		}
	}
	for x, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost", x)
		}
	}
	if p.Stolen() == 0 {
		t.Fatal("expected idle consumers to steal from the skewed shard, Stolen() = 0")
	}
	p.Close()
}
