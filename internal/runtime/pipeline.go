package runtime

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an Offer against a closed producer lane or pipeline.
var ErrClosed = errors.New("runtime: pipeline is closed")

// Config describes a pipeline. Exactly one of RouteLive / RouteSerial is
// consulted, selected by Deterministic.
type Config struct {
	// Shards is the number of consumer lanes (one goroutine + ring each).
	Shards int
	// Producers is the number of producer lanes. Each lane is owned by one
	// goroutine at a time (SPSC on the lane's structures).
	Producers int
	// RingSize is the per-ring capacity (rounded up to a power of two);
	// <= 0 selects 1024. Bounded rings are the backpressure mechanism.
	RingSize int
	// ChunkCap caps how many elements a consumer applies per lock hold;
	// <= 0 selects 512. Smaller values shorten query stalls, larger values
	// amortize locking. Results never depend on it (shard application is
	// chunking-invariant).
	ChunkCap int
	// Deterministic selects the sequenced routing stage: a single router
	// goroutine merges the producer lanes in round-robin order (lane 0's
	// first element, lane 1's first, ..., lane 0's second, ...) and routes
	// serially via RouteSerial, so the ingested stream is a deterministic
	// function of the producers' inputs alone. Closed lanes drop out of
	// the rotation. Offering a stream striped across lanes (lane p takes
	// elements p, p+P, p+2P, ...) therefore reproduces serial ingest of
	// the original stream exactly.
	Deterministic bool
	// RouteLive routes one element in live mode. It is called concurrently
	// from producer goroutines and must be safe for that; the producer
	// index identifies the calling lane so implementations can keep
	// per-lane state (e.g. a private RNG) without synchronization.
	RouteLive func(producer int, x int64) int
	// RouteLiveBatch, when non-nil, routes a whole batch in live mode:
	// it must fill dst[i] with the destination shard of xs[i], exactly as
	// len(xs) RouteLive calls on the same lane would (len(dst) == len(xs)).
	// Batch offers then bucket elements per shard and enqueue each bucket
	// with one ring claim instead of one per element. Same concurrency
	// contract as RouteLive.
	RouteLiveBatch func(producer int, xs []int64, dst []int)
	// RouteSerial routes one element in deterministic mode. It is called
	// from the router goroutine only, in global sequence order.
	RouteSerial func(x int64) int
	// Apply drains one routed chunk into shard state. It is called with
	// the shard's lock held — never concurrently for the same shard — and
	// must not retain xs.
	Apply func(shard int, xs []int64)
	// BeforeApply, when non-nil, runs immediately before every Apply
	// attempt, under the shard lock, with the chunk about to be applied.
	// It is the fault-injection hook: it may sleep (a stalled or slow
	// consumer), panic (a crashed consumer), or corrupt xs in place (a
	// poisoned batch — the pipeline keeps a pristine copy and restores it
	// before each retry).
	BeforeApply func(shard, attempt int, xs []int64)
	// OnApplyPanic, when non-nil, supervises Apply: a panic raised by
	// BeforeApply or Apply is recovered and reported here, still under the
	// shard lock, and the returned Disposition decides whether the chunk
	// is retried (attempt increments) or dropped. Dropped chunks still
	// count toward the applied totals — the barrier contract is "consumed
	// from the ring", not "ingested" — and are tallied per shard in Lost.
	// When nil, an Apply panic propagates and kills the process, exactly
	// as an unsupervised consumer crash would.
	OnApplyPanic func(shard int, v any, xs []int64, attempt int) Disposition
}

// Epoch stamps a read barrier: Seq increases with every barrier taken on
// the pipeline, and Applied is the total number of elements applied to
// shard state when the barrier completed.
type Epoch struct {
	Seq     uint64
	Applied uint64
}

// Pipeline is a running ingest pipeline. Start it with Start, feed it
// through Producer lanes, and stop it with Close (which drains everything
// already offered).
type Pipeline struct {
	cfg       Config
	producers []*Producer
	shardRing []*Ring
	shardMu   []sync.Mutex
	applied   []atomic.Uint64 // per shard, bumped after Apply returns
	routed    []atomic.Uint64 // per producer lane, bumped after the router forwards (deterministic mode)
	lost      []atomic.Uint64 // per shard, elements in chunks dropped by the supervisor

	closing    atomic.Bool
	routerDone chan struct{} // closed when the router goroutine exits (deterministic mode; pre-closed in live mode)
	drained    chan struct{} // closed when the shutdown drain completes
	consumers  sync.WaitGroup
	epoch      atomic.Uint64
	stolen     atomic.Uint64 // elements applied by a consumer other than the shard's own
	closeOnce  sync.Once
}

// Producer is one ingest lane. A lane must be driven by at most one
// goroutine at a time; distinct lanes are fully independent.
type Producer struct {
	p        *Pipeline
	idx      int
	ring     *Ring // deterministic mode: the lane's own ring, merged by the router
	closed   atomic.Bool
	inFlight atomic.Int64 // offers past the closed check but not yet pushed

	// Batch-routing scratch, owned by the lane's driving goroutine.
	dst     []int     // per-element destinations from RouteLiveBatch
	buckets [][]int64 // per-shard element runs for PushBatch
	boff    uint64    // xorshift state for the ctx offers' backoff jitter
}

// Start validates cfg and launches the pipeline's goroutines: one consumer
// per shard, plus the router in deterministic mode.
func Start(cfg Config) (*Pipeline, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("runtime: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Producers < 1 {
		return nil, fmt.Errorf("runtime: need at least 1 producer lane, got %d", cfg.Producers)
	}
	if cfg.Apply == nil {
		return nil, errors.New("runtime: Apply is required")
	}
	if cfg.Deterministic && cfg.RouteSerial == nil {
		return nil, errors.New("runtime: deterministic mode needs RouteSerial")
	}
	if !cfg.Deterministic && cfg.RouteLive == nil {
		return nil, errors.New("runtime: live mode needs RouteLive")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.ChunkCap <= 0 {
		cfg.ChunkCap = 512
	}
	p := &Pipeline{
		cfg:        cfg,
		shardRing:  make([]*Ring, cfg.Shards),
		shardMu:    make([]sync.Mutex, cfg.Shards),
		applied:    make([]atomic.Uint64, cfg.Shards),
		routed:     make([]atomic.Uint64, cfg.Producers),
		lost:       make([]atomic.Uint64, cfg.Shards),
		routerDone: make(chan struct{}),
		drained:    make(chan struct{}),
	}
	for i := range p.shardRing {
		p.shardRing[i] = NewRing(cfg.RingSize)
	}
	p.producers = make([]*Producer, cfg.Producers)
	for i := range p.producers {
		pr := &Producer{p: p, idx: i}
		if cfg.Deterministic {
			pr.ring = NewRing(cfg.RingSize)
		}
		p.producers[i] = pr
	}
	if cfg.Deterministic {
		go p.routerLoop()
	} else {
		close(p.routerDone)
	}
	p.consumers.Add(cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		go p.consumerLoop(s)
	}
	return p, nil
}

// Producer returns lane i.
func (p *Pipeline) Producer(i int) *Producer {
	return p.producers[i]
}

// idleWait backs off while a lane is empty or full: cooperative yields
// first (cheap, and on a loaded scheduler they hand the CPU straight to the
// peer), then short sleeps so idle pipelines don't burn a core.
func idleWait(spin *int) {
	*spin++
	if *spin < 64 {
		stdruntime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

// push enqueues with backpressure: it spins/sleeps while the ring is full.
func push(r *Ring, x int64) {
	spin := 0
	for !r.Push(x) {
		idleWait(&spin)
	}
}

// pushAll enqueues a whole run with backpressure, claiming as many slots
// per ring operation as are free.
func pushAll(r *Ring, xs []int64) {
	spin := 0
	for len(xs) > 0 {
		n := r.PushBatch(xs)
		if n == 0 {
			idleWait(&spin)
			continue
		}
		spin = 0
		xs = xs[n:]
	}
}

// Offer submits one element to the lane, blocking (spin-then-sleep) when
// the pipeline applies backpressure. It reports ErrClosed after the lane or
// pipeline has been closed; elements accepted before that are never lost.
//
// The in-flight counter is incremented BEFORE the closed check and
// decremented after the push lands: Close stores its closing flag first and
// then waits for in-flight offers to drain, so under sequentially
// consistent atomics every offer either observes the flag (and pushes
// nothing) or is observed by Close (which then waits for its push) — an
// accepted element can never slip past the shutdown drain.
func (pr *Producer) Offer(x int64) error {
	pr.inFlight.Add(1)
	defer pr.inFlight.Add(-1)
	if pr.closed.Load() || pr.p.closing.Load() {
		return ErrClosed
	}
	if pr.ring != nil { // deterministic: into the lane ring, merged by the router
		push(pr.ring, x)
		return nil
	}
	push(pr.p.shardRing[pr.p.cfg.RouteLive(pr.idx, x)], x)
	return nil
}

// OfferBatch submits a run of consecutive elements (equivalent to offering
// them one by one on this lane). It shares Offer's shutdown protocol.
//
// This is the ingest hot path: in deterministic mode the run lands in the
// lane ring with one slot claim per free stretch; in live mode, when the
// router provides RouteLiveBatch, the run is routed in one call, bucketed
// per shard, and each bucket enqueued with PushBatch. Elements bound for
// the same shard keep their relative order (the bucketing is stable), which
// is all the ordering live mode ever promises.
//
//robust:hotpath
func (pr *Producer) OfferBatch(xs []int64) error {
	pr.inFlight.Add(1)
	defer pr.inFlight.Add(-1) //robust:alloc open-coded defer (no closure, single site); required for crash-safe in-flight accounting on every exit path
	if pr.closed.Load() || pr.p.closing.Load() {
		return ErrClosed
	}
	if pr.ring != nil {
		pushAll(pr.ring, xs)
		return nil
	}
	p := pr.p
	if p.cfg.RouteLiveBatch == nil {
		for _, x := range xs {
			push(p.shardRing[p.cfg.RouteLive(pr.idx, x)], x)
		}
		return nil
	}
	if p.cfg.Shards == 1 {
		pushAll(p.shardRing[0], xs)
		return nil
	}
	if cap(pr.dst) < len(xs) {
		pr.dst = make([]int, len(xs))
	}
	if pr.buckets == nil {
		pr.buckets = make([][]int64, p.cfg.Shards)
	}
	dst := pr.dst[:len(xs)]
	p.cfg.RouteLiveBatch(pr.idx, xs, dst)
	buckets := pr.buckets
	for s := range buckets {
		buckets[s] = buckets[s][:0]
	}
	for i, x := range xs {
		s := dst[i]
		buckets[s] = append(buckets[s], x)
	}
	for s, b := range buckets {
		if len(b) > 0 {
			pushAll(p.shardRing[s], b)
		}
	}
	return nil
}

// Close marks the lane done. In deterministic mode this removes it from the
// router's rotation once its ring drains; Close is idempotent and must be
// called from (or synchronized with) the lane's producing goroutine.
func (pr *Producer) Close() { pr.closed.Store(true) }

// routerLoop merges the producer lanes in strict round-robin order, routes
// serially, and forwards into the shard rings. It exits when every lane is
// closed and drained.
func (p *Pipeline) routerLoop() {
	defer close(p.routerDone)
	P := p.cfg.Producers
	done := make([]bool, P)
	alive := P
	lane := 0
	for alive > 0 {
		if done[lane] {
			lane = (lane + 1) % P
			continue
		}
		pr := p.producers[lane]
		spin := 0
		for {
			if x, ok := pr.ring.Pop(); ok {
				push(p.shardRing[p.cfg.RouteSerial(x)], x)
				p.routed[lane].Add(1)
				break
			}
			if pr.closed.Load() && pr.ring.Empty() {
				done[lane] = true
				alive--
				break
			}
			idleWait(&spin)
		}
		lane = (lane + 1) % P
	}
}

// drain pops one bounded chunk from shard s's ring and applies it, all
// under the shard lock, returning how many elements it applied. Holding the
// lock across pop+apply makes the pair atomic per shard: any goroutine may
// drain any shard (the basis of work stealing below) and per-shard FIFO
// apply order — the determinism contract — still holds, because elements
// leave the ring only in ring order and only under the lock that serializes
// Apply. The lock-free Backlog pre-check keeps idle consumers from bouncing
// foreign shard locks.
func (p *Pipeline) drain(s int, buf []int64) int {
	ring := p.shardRing[s]
	if ring.Backlog() == 0 {
		return 0
	}
	p.shardMu[s].Lock()
	n := ring.PopInto(buf)
	if n > 0 {
		p.applyChunk(s, buf[:n])
	}
	p.shardMu[s].Unlock()
	if n > 0 {
		p.applied[s].Add(uint64(n))
	}
	return n
}

// stealFrom picks the victim with the longest backlog, excluding shard s.
// A racy scan is fine: a stale choice only means a slightly worse victim.
func (p *Pipeline) stealFrom(s int) int {
	victim, best := -1, uint64(0)
	for v := range p.shardRing {
		if v == s {
			continue
		}
		if b := p.shardRing[v].Backlog(); b > best {
			victim, best = v, b
		}
	}
	return victim
}

// consumerLoop drains shard s's ring into Apply in bounded chunks under the
// shard lock. When its own ring is empty it steals one bounded chunk from
// the shard with the longest backlog — this is a liveness mechanism for
// skewed routing (a hash router can send nearly all traffic to one shard,
// and without stealing the other consumers would idle while one ring
// backs up and stalls every producer through backpressure). Stealing
// preserves the epoch barrier contract: the stolen chunk is applied under
// the victim's shard lock and counted in the victim's applied counter, so
// Flush and Freeze observe exactly the per-shard totals they would have
// seen without stealing. The loop exits once the pipeline is closing, the
// routing stage has finished, and its own ring is drained.
func (p *Pipeline) consumerLoop(s int) {
	defer p.consumers.Done()
	ring := p.shardRing[s]
	buf := make([]int64, p.cfg.ChunkCap)
	spin := 0
	routerExited := false
	for {
		if n := p.drain(s, buf); n > 0 {
			spin = 0
			continue
		}
		if v := p.stealFrom(s); v >= 0 {
			if n := p.drain(v, buf); n > 0 {
				p.stolen.Add(uint64(n))
				spin = 0
				continue
			}
		}
		if p.closing.Load() {
			if !routerExited {
				select {
				case <-p.routerDone:
					routerExited = true
				default:
				}
			}
			if routerExited && ring.Empty() {
				return
			}
		}
		idleWait(&spin)
	}
}

// Offered returns the number of elements accepted by the pipeline so far
// (every Offer/OfferBatch element whose call has returned is counted).
func (p *Pipeline) Offered() uint64 {
	var n uint64
	if p.cfg.Deterministic {
		for _, pr := range p.producers {
			n += pr.ring.Pushed()
		}
		return n
	}
	for _, r := range p.shardRing {
		n += r.Pushed()
	}
	return n
}

// Applied returns the number of elements applied to shard state so far.
func (p *Pipeline) Applied() uint64 {
	var n uint64
	for i := range p.applied {
		n += p.applied[i].Load()
	}
	return n
}

// ShardApplied returns the number of elements consumed from shard s's ring
// so far (including elements in chunks the supervisor dropped — subtract
// ShardLost for the ingested count).
func (p *Pipeline) ShardApplied(s int) uint64 { return p.applied[s].Load() }

// Flush is the drain barrier: it returns once every element whose
// Offer/OfferBatch call returned before Flush was called has been applied
// to shard state, and stamps the moment with a fresh Epoch.
//
// In deterministic mode the barrier first waits for the routing stage, and
// the round-robin merge can only pass elements in global sequence order: if
// one open lane lags far behind another, Flush waits for the lagging lane's
// next element (Close lanes that are finished, or keep lanes evenly fed).
func (p *Pipeline) Flush() Epoch {
	if p.cfg.Deterministic {
		// Stage 1: the router has forwarded everything offered so far.
		for i, pr := range p.producers {
			target := pr.ring.Pushed()
			spin := 0
			for p.routed[i].Load() < target {
				idleWait(&spin)
			}
		}
	}
	// Stage 2: the consumers have applied everything forwarded so far.
	// Ring FIFO order makes "applied count >= pushed count at barrier" the
	// exact statement "every element pushed before the barrier is applied".
	for s, r := range p.shardRing {
		target := r.Pushed()
		spin := 0
		for p.applied[s].Load() < target {
			idleWait(&spin)
		}
	}
	return Epoch{Seq: p.epoch.Add(1), Applied: p.Applied()}
}

// WithShard runs fn while holding shard s's lock: consumers cannot apply to
// that shard during fn, so fn sees (and may copy) a consistent snapshot of
// the shard's state. The offer hot path is never blocked — producers keep
// pushing into the rings.
func (p *Pipeline) WithShard(s int, fn func()) {
	p.shardMu[s].Lock()
	defer p.shardMu[s].Unlock()
	fn()
}

// Freeze runs fn while holding every shard lock (taken in index order), so
// fn sees a single cross-shard-consistent cut of the applied state; offered
// but unapplied elements wait in the rings. It returns a fresh Epoch.
func (p *Pipeline) Freeze(fn func()) Epoch {
	for s := range p.shardMu {
		p.shardMu[s].Lock()
	}
	defer func() {
		for s := len(p.shardMu) - 1; s >= 0; s-- {
			p.shardMu[s].Unlock()
		}
	}()
	fn()
	return Epoch{Seq: p.epoch.Add(1), Applied: p.Applied()}
}

// Close shuts the pipeline down gracefully: it closes every lane, drains
// everything already offered into shard state, stops the goroutines, and
// returns the final epoch. Close is idempotent; producers racing with it
// get ErrClosed. Offered elements are never dropped: Close first waits out
// the offers already past the closed check (see Producer.Offer's in-flight
// protocol), and after the goroutines exit it sweeps the rings once more
// (single-threaded, so the rings' pop role transfers safely) for any
// push that landed after a lane was declared drained.
func (p *Pipeline) Close() Epoch {
	<-p.beginClose()
	return Epoch{Seq: p.epoch.Add(1), Applied: p.Applied()}
}

// beginClose starts the shutdown drain exactly once — on its own goroutine,
// so callers can bound how long they wait for it — and returns the channel
// closed when the drain completes. The drain goroutine survives an
// abandoned CloseCtx wait: a stalled consumer delays completion but the
// drain still finishes (or the process exits first).
func (p *Pipeline) beginClose() <-chan struct{} {
	p.closeOnce.Do(func() {
		go func() {
			defer close(p.drained)
			p.shutdown()
		}()
	})
	return p.drained
}

// shutdown is the drain body behind Close/CloseCtx; it runs exactly once.
func (p *Pipeline) shutdown() {
	p.closing.Store(true)
	for _, pr := range p.producers {
		pr.Close()
	}
	// Wait for in-flight offers: consumers are still draining, so a
	// producer blocked on backpressure completes its push.
	for _, pr := range p.producers {
		spin := 0
		for pr.inFlight.Load() > 0 {
			idleWait(&spin)
		}
	}
	<-p.routerDone
	p.consumers.Wait()
	// Final sweep: an in-flight push may have landed after the
	// router/consumers decided its lane was drained. All goroutines
	// are gone, so this goroutine is now the sole consumer of every
	// ring.
	if p.cfg.Deterministic {
		for i, pr := range p.producers {
			for {
				x, ok := pr.ring.Pop()
				if !ok {
					break
				}
				push(p.shardRing[p.cfg.RouteSerial(x)], x)
				p.routed[i].Add(1)
			}
		}
	}
	for s, r := range p.shardRing {
		var buf [256]int64
		for {
			n := r.PopInto(buf[:])
			if n == 0 {
				break
			}
			// Queries may still run (they are valid on a closed
			// pipeline), so the sweep honors the shard locks exactly
			// like the consumers did.
			p.shardMu[s].Lock()
			p.applyChunk(s, buf[:n])
			p.shardMu[s].Unlock()
			p.applied[s].Add(uint64(n))
		}
	}
}
