// The public serving surface: Engine.Serve lifts a sharded engine into a
// concurrent ingest session — many producer goroutines offering elements
// through lock-free per-shard rings while monitors run live checkpoint
// queries (Verdict, ShardVerdict, Sample, GlobalSample, Snapshot) behind
// epoch-stamped read barriers, without ever stopping the stream.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"robustsample/internal/runtime"
	ishard "robustsample/internal/shard"
)

// PipelineConfig sizes the concurrent ingest pipeline behind Serve.
// The zero value is usable: one producer lane, live routing, default ring
// and chunk sizes.
type PipelineConfig struct {
	// Producers is the number of ingest lanes; <= 0 selects 1. Each lane
	// must be driven by at most one goroutine at a time; distinct lanes
	// are fully independent.
	Producers int
	// RingSize bounds each lock-free ring (rounded up to a power of two);
	// it is the backpressure mechanism — producers that outrun ingest
	// block until consumers catch up. <= 0 selects 1024.
	RingSize int
	// ChunkCap caps how many elements a consumer applies per shard-lock
	// hold; smaller values shorten query stalls, larger ones amortize
	// locking. Results never depend on it. <= 0 selects 512.
	ChunkCap int
	// Deterministic selects sequenced routing: a router goroutine merges
	// the lanes in round-robin order (lane 0's first element, lane 1's
	// first, ..., lane 0's second, ...) and draws routing decisions
	// serially — the exact serial-ingest code path — so a stream striped
	// across lanes (lane p takes elements p, p+P, ...) yields
	// byte-identical samples and verdicts to serial OfferBatch, for every
	// producer count. Live mode (the default) maximizes throughput
	// instead: producers route their own elements lock-free, and the
	// ingested interleaving is whatever concurrency produced.
	Deterministic bool
	// CheckpointEvery enables crash supervision: each shard snapshots its
	// state roughly every CheckpointEvery applied elements, and a
	// panicking consumer restores the shard from its latest checkpoint
	// and retries instead of killing the process. Deterministic sessions
	// additionally replay a redo journal, so recovery is bit-identical
	// and loses nothing; live sessions lose at most one checkpoint
	// interval per crash, reconciled in the session's round counters.
	// 0 (the default) disables supervision — a consumer panic then
	// propagates and kills the process, exactly as before.
	CheckpointEvery int
	// RetryLimit is how many times a failing chunk is retried from the
	// restored checkpoint before being dropped (its elements count as
	// lost rounds); <= 0 selects 2. Only meaningful with supervision.
	RetryLimit int
	// QueryWait bounds how long the degraded reads (VerdictCovered,
	// SampleCovered, GlobalSampleCovered) wait for each shard's lock
	// before skipping that shard, so a read with k wedged shards returns
	// within about k×QueryWait; <= 0 selects 5ms. The blocking reads
	// (Verdict, Sample, GlobalSample) walk the shards the same way but
	// wait for every lock.
	QueryWait time.Duration
	// OnEpoch, when non-nil, is invoked synchronously with the completed
	// epoch after every epoch-stamped barrier the session takes: each
	// Flush, each Snapshot freeze, and — once — the final drain of the
	// first close to complete, whether by Close, CloseContext or a
	// cancelled Serve ctx. It runs on the barrier caller's goroutine and
	// must be safe for concurrent use when barriers are taken
	// concurrently. Meta-sketches layered above the engine use it to drive
	// rotation from the serving runtime — see robustsample/switching's
	// Rotator.
	OnEpoch func(Epoch)
}

// WithPipeline configures the pipeline Serve starts (default: a one-lane
// live pipeline).
func WithPipeline(cfg PipelineConfig) Option {
	return func(c *config) error {
		if cfg.Producers < 0 {
			return fmt.Errorf("%w: negative producer count %d", ErrBadConfig, cfg.Producers)
		}
		if cfg.CheckpointEvery < 0 {
			return fmt.Errorf("%w: negative checkpoint interval %d", ErrBadConfig, cfg.CheckpointEvery)
		}
		c.pipeline = cfg
		return nil
	}
}

// Epoch stamps a serving read barrier: Seq increases with every barrier
// taken, and Applied counts the elements applied to shard state when the
// barrier completed.
type Epoch = runtime.Epoch

// Serving is a live concurrent ingest session over an Engine. Feed it
// through Producer lanes; every query method is safe for concurrent use
// and runs against the session's read barriers while ingest continues.
// Close drains the pipeline and returns the engine to serial use.
type Serving[T any] struct {
	e       *Engine[T]
	inner   *ishard.Serving
	prods   []*Producer[T]
	onEpoch func(Epoch)
	qmu     sync.Mutex // guards coordRNG for GlobalSample and Snapshot
	done    chan struct{}
	once    sync.Once // the first completed close releases the engine and fires OnEpoch
}

// Producer is one ingest lane of a Serving session, owned by one goroutine
// at a time.
type Producer[T any] struct {
	s     *Serving[T]
	inner *runtime.Producer
	buf   []int64
}

// Serve starts a concurrent ingest session configured by WithPipeline.
// While the session is open the engine's mutating methods (Offer,
// OfferBatch, MergeFrom, Restore; Reset is ignored) report
// ErrServing, and its read methods (Verdict, ShardVerdict, Sample, Query,
// GlobalSample, Snapshot, Rounds, ...) delegate to the session's read
// barriers — so code holding the engine as a sketch.Sketch[T] keeps
// working, live. Cancelling ctx closes the session in the background,
// after which producers get ErrServingClosed. A closed session cannot be
// restarted — call Serve again for a new one.
func (e *Engine[T]) Serve(ctx context.Context) (*Serving[T], error) {
	// Serialize Serve calls: a concurrent loser must not have started a
	// second pipeline over the same shards.
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	if e.srv.Load() != nil {
		return nil, ErrServing
	}
	pcfg := e.cfg.pipeline
	if pcfg.Producers <= 0 {
		pcfg.Producers = 1
	}
	inner, err := e.inner.Serve(ishard.ServeConfig{
		Producers:       pcfg.Producers,
		RingSize:        pcfg.RingSize,
		ChunkCap:        pcfg.ChunkCap,
		Deterministic:   pcfg.Deterministic,
		CheckpointEvery: pcfg.CheckpointEvery,
		RetryLimit:      pcfg.RetryLimit,
		QueryWait:       pcfg.QueryWait,
	})
	if err != nil {
		return nil, err
	}
	s := &Serving[T]{e: e, inner: inner, onEpoch: pcfg.OnEpoch, done: make(chan struct{})}
	s.prods = make([]*Producer[T], pcfg.Producers)
	for i := range s.prods {
		s.prods[i] = &Producer[T]{s: s, inner: inner.Producer(i)}
	}
	e.srv.Store(s)
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// Producer returns ingest lane i in [0, NumProducers).
func (s *Serving[T]) Producer(i int) (*Producer[T], error) {
	if i < 0 || i >= len(s.prods) {
		return nil, ErrBadProducer
	}
	return s.prods[i], nil
}

// NumProducers returns the lane count.
func (s *Serving[T]) NumProducers() int { return len(s.prods) }

// mapServeErr translates the internal pipeline's sentinels to the public
// ones: a closed pipeline reports ErrServingClosed; backpressure timeouts
// (already matching both ErrBackpressure and the ctx error) pass through.
func mapServeErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, runtime.ErrClosed) {
		return ErrServingClosed
	}
	return err
}

// Offer submits one element on this lane, blocking under backpressure
// until accepted: OfferContext without a deadline. After the session
// closes it reports ErrServingClosed.
func (p *Producer[T]) Offer(x T) error {
	return p.OfferContext(context.Background(), x)
}

// OfferContext is Offer with bounded waiting: if the element cannot be
// accepted before ctx is done (consumers not keeping up), it gives up and
// returns an error matching both ErrBackpressure and the ctx error.
// Backpressure waits are Offer's — cooperative yields, then short sleeps —
// with ctx checked between waits.
func (p *Producer[T]) OfferContext(ctx context.Context, x T) error {
	v, err := p.s.e.u.Encode(x)
	if err != nil {
		return err
	}
	return mapServeErr(p.inner.OfferCtx(ctx, v))
}

// OfferBatch submits a run of consecutive elements on this lane:
// OfferBatchContext without a deadline. The batch is atomic against
// encoding errors: if any element is outside the universe, nothing is
// submitted.
func (p *Producer[T]) OfferBatch(xs []T) error {
	_, err := p.OfferBatchContext(context.Background(), xs)
	return err
}

// OfferBatchContext is OfferBatch with bounded waiting: it submits as much
// of the batch as backpressure allows before ctx is done and returns how
// many elements were accepted, with an error matching both ErrBackpressure
// and the ctx error if it could not finish. Encoding errors are still
// atomic: if any element is outside the universe, nothing is submitted.
func (p *Producer[T]) OfferBatchContext(ctx context.Context, xs []T) (int, error) {
	buf, err := p.s.e.encode(p.buf[:0], xs)
	if err != nil {
		return 0, err
	}
	p.buf = buf
	n, err := p.inner.OfferBatchCtx(ctx, buf)
	return n, mapServeErr(err)
}

// Close marks the lane done. In deterministic mode this removes it from
// the sequencing rotation once drained; always close finished lanes so
// Flush barriers cannot wait on them.
func (p *Producer[T]) Close() { p.inner.Close() }

// Flush is the drain barrier: it returns once every element offered before
// the call has been applied to shard state.
//
// In deterministic mode the sequencer can only order elements lane by lane
// in rotation, so Flush completes once the rotation can cover everything
// offered — close lanes that are finished, or keep lanes evenly fed.
func (s *Serving[T]) Flush() Epoch {
	ep := s.inner.Flush()
	s.notifyEpoch(ep)
	return ep
}

// notifyEpoch delivers a completed barrier epoch to the configured hook.
func (s *Serving[T]) notifyEpoch(ep Epoch) {
	if s.onEpoch != nil {
		s.onEpoch(ep)
	}
}

// Rounds returns the number of elements accepted so far (applied or still
// in flight).
func (s *Serving[T]) Rounds() int { return s.inner.Rounds() }

// AppliedRounds returns the number of elements already applied to shard
// state — the cut the live queries see.
func (s *Serving[T]) AppliedRounds() int { return s.inner.AppliedRounds() }

// Verdict returns the exact discrepancy of the union of the applied
// substreams against the union sample, concurrently with ingest: per-shard
// histograms merge behind each shard's read barrier, so each shard's
// (substream, sample) pair is internally consistent, with shards cut at
// slightly different points of the in-flight stream. Flush first for a cut
// covering everything offered.
func (s *Serving[T]) Verdict() (Verdict[T], error) {
	return s.e.decodeVerdict(s.inner.Verdict())
}

// ShardVerdict returns shard i's local discrepancy: the shard is locked
// only long enough to copy its histograms; the scan runs on the copy.
func (s *Serving[T]) ShardVerdict(i int) (Verdict[T], error) {
	if i < 0 || i >= s.e.inner.NumShards() {
		return Verdict[T]{}, ErrBadShardIndex
	}
	return s.e.decodeVerdict(s.inner.ShardVerdict(i))
}

// Sample returns a copy of the union sample, decoded, each shard read
// behind its barrier. Retained points were validated on admission, so an
// undecodable one is internal corruption and panics.
func (s *Serving[T]) Sample() []T { return s.e.mustDecode(s.inner.Sample()) }

// SampleLen returns the union sample size.
func (s *Serving[T]) SampleLen() int { return s.inner.SampleLen() }

// GlobalSample draws a uniform size-k sample of the union of the applied
// substreams from the per-shard samples alone ([CTW16] fan-in), clamped to
// the available elements. Safe for concurrent use; coordinator randomness
// is serialized on the engine's query stream.
func (s *Serving[T]) GlobalSample(k int) ([]T, error) {
	if k < 1 {
		return nil, ErrBadSample
	}
	s.qmu.Lock()
	ps := s.inner.GlobalSample(k, s.e.coordRNG)
	s.qmu.Unlock()
	return s.e.decode(ps)
}

// Snapshot serializes the engine under a freeze: a single
// cross-shard-consistent cut of the applied state, in exactly the format
// of Engine.Snapshot. For a checkpoint covering everything offered — and,
// in deterministic mode, a routing stream that replays bit-exactly — Flush
// first and keep producers quiescent across the call.
//
//robust:codec-pair emits the Engine codec; Engine.Restore is the paired decoder
func (s *Serving[T]) Snapshot() ([]byte, error) {
	s.qmu.Lock()
	hi, lo := s.e.coordRNG.State()
	s.qmu.Unlock()
	out, ep, err := s.inner.AppendState(s.e.snapPreamble(hi, lo))
	if err != nil {
		return nil, err
	}
	s.notifyEpoch(ep)
	return out, nil
}

// Close drains everything offered, stops the pipeline, and returns the
// engine to serial use: CloseContext without a deadline. It is
// idempotent; the drain epoch of the first close is returned every time.
func (s *Serving[T]) Close() Epoch {
	ep, _ := s.CloseContext(context.Background())
	return ep
}

// CloseContext is Close with a drain deadline: it starts the shutdown
// drain and waits for it until ctx is done. On timeout it returns an error
// matching both ErrDrainTimeout and the ctx error; the drain keeps running
// in the background — the session is NOT closed, and a later Close or
// CloseContext waits for the same drain. Producers wedged on a full ring
// unblock as consumers keep applying. The first close to complete releases
// the engine to serial use and fires OnEpoch with the drain epoch; every
// close, whichever path and however many run concurrently, returns that
// epoch.
func (s *Serving[T]) CloseContext(ctx context.Context) (Epoch, error) {
	ep, err := s.inner.CloseCtx(ctx)
	if err != nil {
		return ep, err
	}
	s.once.Do(func() {
		s.e.srv.Store(nil)
		close(s.done)
		s.notifyEpoch(ep)
	})
	return ep, nil
}
