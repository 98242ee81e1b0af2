package runtime

// Supervision and bounded lock waits: the failure-model half of the
// pipeline. The hot path in pipeline.go assumes consumers never fail; this
// file adds the supervised apply path (panic recovery with retry/drop
// dispositions and per-shard loss accounting) and a bounded shard-lock
// acquire for degraded reads. Bounded offers and closes are no separate
// path: every offer is OfferBatchCtx and every close CloseCtx, and the
// blocking forms pass context.Background().

import "time"

// Disposition is a supervisor's verdict on a failed apply attempt.
type Disposition uint8

const (
	// Retry re-applies the chunk, restored to its pristine content when a
	// BeforeApply hook may have corrupted it.
	Retry Disposition = iota
	// Drop abandons the chunk: its elements count as lost (see Lost) and
	// as consumed for the barrier totals, and the consumer moves on.
	Drop
)

// applyChunk applies one chunk to shard s under its (already held) lock.
// Without hooks it is exactly the unsupervised hot path: one direct Apply
// call. With hooks it runs the supervision protocol: inject faults via
// BeforeApply, recover panics, consult OnApplyPanic, and retry or drop.
func (p *Pipeline) applyChunk(s int, xs []int64) {
	if p.cfg.BeforeApply == nil && p.cfg.OnApplyPanic == nil {
		p.cfg.Apply(s, xs)
		return
	}
	// BeforeApply may corrupt the chunk in place; keep a pristine copy so
	// retries re-apply the real data, not the corruption. (Only the
	// fault-injection configuration pays this copy.)
	var pristine []int64
	if p.cfg.BeforeApply != nil {
		pristine = append(pristine, xs...)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 && pristine != nil {
			copy(xs, pristine)
		}
		v, ok := p.tryApply(s, attempt, xs)
		if ok {
			return
		}
		if p.cfg.OnApplyPanic == nil {
			panic(v) // injection without supervision: crash like production would
		}
		if p.cfg.OnApplyPanic(s, v, xs, attempt) == Drop {
			p.lost[s].Add(uint64(len(xs)))
			return
		}
	}
}

// tryApply runs one BeforeApply+Apply attempt, converting a panic into
// (panicValue, false).
func (p *Pipeline) tryApply(s, attempt int, xs []int64) (v any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			v, ok = r, false
		}
	}()
	if p.cfg.BeforeApply != nil {
		p.cfg.BeforeApply(s, attempt, xs)
	}
	p.cfg.Apply(s, xs)
	return nil, true
}

// Lost returns the number of elements in chunks the supervisor dropped.
func (p *Pipeline) Lost() uint64 {
	var n uint64
	for i := range p.lost {
		n += p.lost[i].Load()
	}
	return n
}

// ShardLost returns shard s's dropped-element count.
func (p *Pipeline) ShardLost(s int) uint64 { return p.lost[s].Load() }

// TryWithShard is WithShard with bounded waiting: it runs fn under shard
// s's lock if the lock can be had within wait (a single attempt when wait
// <= 0), and reports whether fn ran. Like WithShard it announces itself
// while it waits, so a busy consumer lets it in after the chunk in
// progress. A shard whose consumer is stalled mid-apply keeps its lock for
// the duration of the stall; degraded reads use TryWithShard to skip such
// shards instead of blocking behind them.
func (p *Pipeline) TryWithShard(s int, wait time.Duration, fn func()) bool {
	if !p.tryLockForRead(s, wait) {
		return false
	}
	defer p.shardMu[s].Unlock()
	fn()
	return true
}

// tryLockForRead is lockForRead giving up after wait. It polls on the
// offers' wait schedule (idleWait): yields, then short sleeps. Polling
// with yields alone reads worse: E20's degraded reads completed less
// often, since a yielding reader queues behind every runnable goroutine
// while a sleeping one is woken promptly by its timer.
func (p *Pipeline) tryLockForRead(s int, wait time.Duration) bool {
	mu := &p.shardMu[s]
	p.readers[s].Add(1)
	defer p.readers[s].Add(-1)
	deadline := time.Now().Add(wait) //robust:nondet lock-acquisition deadline only; never reaches sampler or verdict state
	spin := 0
	for !mu.TryLock() {
		if !time.Now().Before(deadline) { //robust:nondet lock-acquisition deadline only; never reaches sampler or verdict state
			return false
		}
		idleWait(&spin)
	}
	return true
}
