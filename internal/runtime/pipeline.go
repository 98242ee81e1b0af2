package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an Offer against a closed producer lane or pipeline.
var ErrClosed = errors.New("runtime: pipeline is closed")

// ErrBackpressure reports an Offer that gave up waiting for ring space
// because its context expired; it is always joined with the context's own
// error, so errors.Is matches both.
var ErrBackpressure = errors.New("runtime: offer gave up under backpressure")

// ErrDrainTimeout reports a CloseCtx that gave up waiting for the shutdown
// drain; the drain itself keeps running in the background.
var ErrDrainTimeout = errors.New("runtime: close drain deadline exceeded")

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
	// RouteLive routes a run of elements in live mode: it fills dst[i]
	// with the destination shard of xs[i] (len(dst) == len(xs)). Offers
	// then bucket the run per shard and enqueue each bucket with one ring
	// claim; a single-element offer routes a run of one. It is called
	// concurrently from producer goroutines and must be safe for that; the
	// producer index identifies the calling lane so implementations can
	// keep per-lane state (e.g. a private RNG) without synchronization.
	RouteLive func(producer int, xs []int64, dst []int)
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
// through Producer lanes, and stop it with CloseCtx (which drains everything
// already offered).
type Pipeline struct {
	cfg       Config
	producers []*Producer
	shardRing []*Ring
	shardMu   []sync.Mutex
	readers   []atomic.Int32  // per shard, readers announced and not yet holding shardMu
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

	// Routing scratch, owned by the lane's driving goroutine.
	one     [1]int64  // a single-element offer's run of one
	dst     []int     // per-element destinations from RouteLive
	buckets [][]int64 // per-shard element runs for PushBatch
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
		readers:    make([]atomic.Int32, cfg.Shards),
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

// pushAll is the one ring-push loop: it enqueues a run, claiming as many
// slots per ring operation as are free, and while the ring is full it
// waits by idleWait, checking ctx between waits. It returns how many
// elements landed; if ctx ends first the error matches both
// ErrBackpressure and the ctx error. Blocking callers pass
// context.Background(), which never ends.
func pushAll(ctx context.Context, r *Ring, xs []int64) (int, error) {
	pushed, spin := 0, 0
	for pushed < len(xs) {
		if n := r.PushBatch(xs[pushed:]); n > 0 {
			pushed += n
			spin = 0
			continue
		}
		if err := ctx.Err(); err != nil {
			return pushed, errors.Join(ErrBackpressure, err)
		}
		idleWait(&spin)
	}
	return pushed, nil
}

// Offer submits one element to the lane, blocking (spin-then-sleep) while
// the pipeline applies backpressure: OfferBatchCtx of a run of one without
// a deadline.
func (pr *Producer) Offer(x int64) error {
	return pr.OfferCtx(context.Background(), x)
}

// OfferCtx is Offer with bounded waiting: once ctx is done it stops
// waiting for ring space and returns an error matching both
// ErrBackpressure and the ctx error; the element was then not accepted.
func (pr *Producer) OfferCtx(ctx context.Context, x int64) error {
	pr.one[0] = x
	_, err := pr.OfferBatchCtx(ctx, pr.one[:])
	return err
}

// OfferBatch submits a run of consecutive elements (equivalent to offering
// them one by one on this lane), blocking while the pipeline applies
// backpressure: OfferBatchCtx without a deadline.
func (pr *Producer) OfferBatch(xs []int64) error {
	_, err := pr.OfferBatchCtx(context.Background(), xs)
	return err
}

// OfferBatchCtx is the lane body behind every offer. It submits a run of
// consecutive elements and returns how many were accepted. While the
// pipeline applies backpressure it waits (cooperative yields, then short
// sleeps) until ctx is done, and then returns an error matching both
// ErrBackpressure and the ctx error. The count is then the accepted prefix
// on lane-ordered paths, or the per-shard total on the live bucketed path
// (which elements landed is routing-dependent; accepted elements are
// applied normally either way, so round counters stay conserved). After
// the lane or pipeline has been closed it reports ErrClosed; elements
// accepted before that are never lost.
//
// The in-flight counter is incremented BEFORE the closed check and
// decremented after the push lands: the drain stores its closing flag first
// and then waits for in-flight offers to drain, so under sequentially
// consistent atomics every offer either observes the flag (and pushes
// nothing) or is observed by the drain (which then waits for its push) — an
// accepted element can never slip past the shutdown drain.
//
// This is the ingest hot path: in deterministic mode the run lands in the
// lane ring with one slot claim per free stretch; in live mode it is routed
// in one RouteLive call, bucketed per shard, and each bucket enqueued with
// PushBatch. Elements bound for the same shard keep their relative order
// (the bucketing is stable), which is all the ordering live mode ever
// promises.
//
//robust:hotpath
func (pr *Producer) OfferBatchCtx(ctx context.Context, xs []int64) (int, error) {
	pr.inFlight.Add(1)
	defer pr.inFlight.Add(-1) //robust:alloc open-coded defer (no closure, single site); required for crash-safe in-flight accounting on every exit path
	if pr.closed.Load() || pr.p.closing.Load() {
		return 0, ErrClosed
	}
	if pr.ring != nil { // deterministic: into the lane ring, merged by the router
		return pushAll(ctx, pr.ring, xs)
	}
	p := pr.p
	if p.cfg.Shards == 1 {
		return pushAll(ctx, p.shardRing[0], xs)
	}
	if cap(pr.dst) < len(xs) {
		pr.dst = make([]int, len(xs))
	}
	if pr.buckets == nil {
		pr.buckets = make([][]int64, p.cfg.Shards)
	}
	dst := pr.dst[:len(xs)]
	p.cfg.RouteLive(pr.idx, xs, dst)
	buckets := pr.buckets
	for s := range buckets {
		buckets[s] = buckets[s][:0]
	}
	for i, x := range xs {
		s := dst[i]
		buckets[s] = append(buckets[s], x)
	}
	accepted := 0
	for s, b := range buckets {
		if len(b) == 0 {
			continue
		}
		n, err := pushAll(ctx, p.shardRing[s], b)
		accepted += n
		if err != nil {
			return accepted, err
		}
	}
	return accepted, nil
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
				p.forward(lane, x)
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

// forward routes x serially and pushes it into its shard ring, blocking
// under backpressure (deterministic mode: the router goroutine, or the
// shutdown sweep once the router has exited).
func (p *Pipeline) forward(lane int, x int64) {
	pushAll(context.Background(), p.shardRing[p.cfg.RouteSerial(x)], []int64{x})
	p.routed[lane].Add(1)
}

// drain pops one bounded chunk from shard s's ring and applies it, all
// under the shard lock, returning how many elements it applied. Holding the
// lock across pop+apply makes the pair atomic per shard: any goroutine may
// drain any shard (the basis of work stealing below) and per-shard FIFO
// apply order — the determinism contract — still holds, because elements
// leave the ring only in ring order and only under the lock that serializes
// Apply. The lock-free Backlog pre-check keeps idle consumers from bouncing
// foreign shard locks.
//
// A reader waiting for the shard (lockForRead) gets the lock after the
// chunk in progress: drain yields to it before it locks and after it
// unlocks. A consumer that unlocked and re-locked at once would otherwise
// win the lock again and again, and hold the reader off for hundreds of
// chunks until sync.Mutex's 1 ms starvation handoff.
func (p *Pipeline) drain(s int, buf []int64) int {
	ring := p.shardRing[s]
	if ring.Backlog() == 0 {
		return 0
	}
	p.yieldToReaders(s)
	p.shardMu[s].Lock()
	n := ring.PopInto(buf)
	if n > 0 {
		p.applyChunk(s, buf[:n])
	}
	p.shardMu[s].Unlock()
	if n > 0 {
		p.applied[s].Add(uint64(n))
	}
	p.yieldToReaders(s)
	return n
}

// yieldToReaders yields until no reader waits for shard s's lock. After an
// unlock this also runs a reader that the unlock woke onto this goroutine's
// own run queue, where it would otherwise wait for the consumer's next
// scheduling point.
func (p *Pipeline) yieldToReaders(s int) {
	for p.readers[s].Load() > 0 {
		stdruntime.Gosched()
	}
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
// pushing into the rings. The reader cuts in after the chunk in progress:
// it announces itself before it locks, and consumers yield to it before
// they drain the shard again.
func (p *Pipeline) WithShard(s int, fn func()) {
	p.lockForRead(s)
	defer p.shardMu[s].Unlock()
	fn()
}

// lockForRead takes shard s's lock for a reader, announced on the shard's
// reader count while it waits so that drain lets it in after one chunk.
func (p *Pipeline) lockForRead(s int) {
	p.readers[s].Add(1)
	p.shardMu[s].Lock()
	p.readers[s].Add(-1)
}

// Freeze runs fn while holding every shard lock (taken in index order, each
// as WithShard takes it, so each shard stops after its chunk in progress),
// so fn sees a single cross-shard-consistent cut of the applied state;
// offered but unapplied elements wait in the rings. It returns a fresh
// Epoch.
func (p *Pipeline) Freeze(fn func()) Epoch {
	for s := range p.shardMu {
		p.lockForRead(s)
	}
	defer func() {
		for s := len(p.shardMu) - 1; s >= 0; s-- {
			p.shardMu[s].Unlock()
		}
	}()
	fn()
	return Epoch{Seq: p.epoch.Add(1), Applied: p.Applied()}
}

// CloseCtx shuts the pipeline down gracefully: it closes every lane,
// drains everything already offered into shard state, stops the
// goroutines, and returns the final epoch. It is idempotent; producers
// racing with it get ErrClosed. Offered elements are never dropped: the
// drain first waits out the offers already past the closed check (see
// Producer.OfferBatchCtx's in-flight protocol), and after the goroutines
// exit it sweeps the rings once more (single-threaded, so the rings' pop
// role transfers safely) for any push that landed after a lane was
// declared drained.
//
// The wait for the drain ends with ctx: CloseCtx then returns an error
// matching both ErrDrainTimeout and the ctx error; the drain keeps running
// in the background, and a later CloseCtx waits for the same drain. A
// completed drain wins over an expired ctx. A close without a deadline
// passes context.Background().
func (p *Pipeline) CloseCtx(ctx context.Context) (Epoch, error) {
	drained := p.beginClose()
	select {
	case <-drained:
	case <-ctx.Done():
		select {
		case <-drained:
		default:
			return Epoch{Seq: p.epoch.Load(), Applied: p.Applied()}, errors.Join(ErrDrainTimeout, ctx.Err())
		}
	}
	return Epoch{Seq: p.epoch.Add(1), Applied: p.Applied()}, nil
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

// shutdown is the drain body behind CloseCtx; it runs exactly once.
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
				p.forward(i, x)
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
