// Package runtime is the concurrent serving runtime underneath the sharded
// engine: a lock-free ingest pipeline that lets many producer goroutines
// offer stream elements while per-shard consumer goroutines drain them into
// the (single-threaded) sampler + accumulator batch paths, and monitors
// query live state behind epoch-stamped read barriers.
//
// The pipeline has two stages:
//
//   - an MPSC routing stage that decides each element's destination shard —
//     either concurrently on the producers themselves (live mode, for
//     routers that are pure functions or own per-producer randomness) or on
//     a dedicated router goroutine that merges producer lanes in global
//     sequence order (deterministic mode);
//   - one bounded SPSC ring per shard feeding that shard's consumer
//     goroutine, which applies elements in FIFO order in bounded chunks
//     while holding the shard's lock.
//
// Backpressure is the rings' bounded capacity: a full ring makes the
// producer (or router) spin-then-sleep until the consumer catches up, so
// memory use is fixed no matter how far producers outrun ingest.
//
// Reads never stall the offer hot path: queries lock individual shards (or,
// under Freeze, all of them) only against the consumers' bounded apply
// chunks, while producers keep pushing into the rings.
package runtime

import "sync/atomic"

// Ring is a bounded lock-free multi-producer single-consumer queue of
// stream elements (Vyukov's bounded-queue cell/sequence scheme restricted
// to one consumer). Any number of goroutines may Push or PushBatch
// concurrently; Pop and PopInto must be serialized by the caller (at most
// one goroutine popping at a time — the pipeline enforces this with the
// shard lock, which is what lets idle consumers steal from foreign rings).
// The dequeue cursor is atomic so producers and stealers may read Backlog
// and Empty concurrently with the popper. Capacity is rounded up to a
// power of two.
type Ring struct {
	mask  uint64
	cells []ringCell
	enq   atomic.Uint64 // next enqueue position; also the count of pushes ever started
	deq   atomic.Uint64 // next dequeue position; owned by whoever holds the pop role
}

type ringCell struct {
	seq atomic.Uint64
	val int64
}

// NewRing returns a ring of at least the given capacity (rounded up to a
// power of two, minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring{mask: uint64(n - 1), cells: make([]ringCell, n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Push enqueues x, reporting false when the ring is full. Safe for
// concurrent use by any number of producers.
//
//robust:hotpath
func (r *Ring) Push(x int64) bool {
	pos := r.enq.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.val = x
				c.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			// The cell still holds an element the consumer has not taken:
			// the ring is full.
			return false
		default:
			// Another producer claimed this position; reload.
			pos = r.enq.Load()
		}
	}
}

// PushBatch enqueues a prefix of xs with one claim for the whole run: it
// reserves min(len(xs), free) consecutive slots via a single
// compare-and-swap, writes the values, and publishes their sequence numbers
// in order. It returns how many elements it took (0 when the ring is full —
// the caller retries the remainder). Safe for concurrent use by any number
// of producers, and pushes from one goroutine stay FIFO.
//
// The free-slot count is computed from the dequeue cursor, which is
// published only after a popped cell's sequence number is recycled; a stale
// read therefore only under-counts free slots, so every claimed cell is
// guaranteed writable without per-cell sequence checks.
//
//robust:hotpath
func (r *Ring) PushBatch(xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	for {
		// Load order matters: enq first, then deq. The ring invariant is
		// enq <= deq+cap, and deq only grows, so a deq read after the enq
		// read satisfies pos-deq <= cap and the subtraction cannot wrap.
		pos := r.enq.Load()
		free := uint64(len(r.cells)) - (pos - r.deq.Load())
		if free == 0 {
			return 0
		}
		n := uint64(len(xs))
		if n > free {
			n = free
		}
		if !r.enq.CompareAndSwap(pos, pos+n) {
			continue
		}
		for i := uint64(0); i < n; i++ {
			c := &r.cells[(pos+i)&r.mask]
			c.val = xs[i]
			c.seq.Store(pos + i + 1)
		}
		return int(n)
	}
}

// Pop dequeues one element. At most one goroutine may hold the pop role at
// a time (see the type comment).
func (r *Ring) Pop() (int64, bool) {
	d := r.deq.Load()
	c := &r.cells[d&r.mask]
	if c.seq.Load() != d+1 {
		return 0, false
	}
	v := c.val
	// Recycle the cell before publishing the new cursor: PushBatch sizes
	// its claim from the cursor, so cursor-visible slots must already be
	// writable.
	c.seq.Store(d + r.mask + 1)
	r.deq.Store(d + 1)
	return v, true
}

// PopInto dequeues up to len(buf) elements into buf, returning how many it
// took. Same pop-role rule as Pop.
func (r *Ring) PopInto(buf []int64) int {
	n := 0
	for n < len(buf) {
		v, ok := r.Pop()
		if !ok {
			break
		}
		buf[n] = v
		n++
	}
	return n
}

// Empty reports whether every push that has started is consumed. Safe from
// any goroutine; exact only while pushes are quiescent.
func (r *Ring) Empty() bool { return r.enq.Load() == r.deq.Load() }

// Backlog returns the number of elements pushed but not yet popped. It is a
// racy snapshot — safe from any goroutine, used to pick work-stealing
// victims and to skip locking provably empty rings.
func (r *Ring) Backlog() uint64 {
	d := r.deq.Load()
	e := r.enq.Load()
	// enq is read second, so e >= the enq matching d; the subtraction
	// cannot wrap.
	return e - d
}

// Pushed returns the number of pushes ever started on the ring. An element
// whose Push has returned is always counted; the FIFO drain barrier in
// Pipeline.Flush is built on this.
func (r *Ring) Pushed() uint64 { return r.enq.Load() }
