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
//   - one bounded MPSC ring per shard feeding that shard's consumer
//     goroutine, which applies elements in FIFO order in bounded chunks
//     while holding the shard's lock. Any producer (or the router) may push
//     into any shard ring; one popper at a time drains it, normally the
//     shard's own consumer and sometimes a stealing one.
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
// stream elements that publishes runs, not elements. A push claims a run
// of consecutive positions with one compare-and-swap on the enqueue
// cursor, copies its values into the plain value array, and publishes the
// whole run with one header store: head[pos&mask] = pos+n. The popper
// reads one header per run, copies the run out (keeping the unread rest of
// a partly popped run in end), and stores the dequeue cursor once per
// PopInto.
//
// No slot is ever recycled. Producers size their claims from the dequeue
// cursor, so a claimed slot is always free. A header left over from an
// earlier lap holds at most the current cursor (a run is never longer than
// the ring), so the popper reads it as "not yet published". And no
// producer can publish at d+cap before position d is consumed.
//
// Any number of goroutines may PushBatch concurrently (a single element is
// a run of one); Pop and PopInto must be serialized by the caller (at most
// one goroutine popping at a time — the pipeline enforces this with the
// shard lock, which is what lets idle consumers steal from foreign rings).
// The dequeue cursor is atomic so producers and stealers may read Backlog
// and Empty concurrently with the popper. Capacity counts elements and is
// rounded up to a power of two.
type Ring struct {
	mask uint64
	vals []int64
	head []atomic.Uint64 // head[p&mask] = p+n once the run claimed at p is written
	end  uint64          // popper-owned: end of the run the dequeue cursor is in
	enq  atomic.Uint64   // next enqueue position; also the count of pushes ever started
	deq  atomic.Uint64   // next dequeue position; owned by whoever holds the pop role
}

// NewRing returns a ring of at least the given capacity (rounded up to a
// power of two, minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), vals: make([]int64, n), head: make([]atomic.Uint64, n)}
}

// claim reserves up to want consecutive positions with one CAS, returning
// the first and how many it took (0 when the ring is full).
func (r *Ring) claim(want int) (pos, n uint64) {
	for {
		// Load order matters: enq first, then deq. The ring invariant is
		// enq <= deq+cap, and deq only grows, so a deq read after the enq
		// read satisfies pos-deq <= cap. A deq that moves on only
		// under-counts free slots; one that has overtaken pos fails the CAS.
		pos = r.enq.Load()
		free := uint64(len(r.vals)) - (pos - r.deq.Load())
		if free == 0 {
			return pos, 0
		}
		n = min(uint64(want), free)
		if r.enq.CompareAndSwap(pos, pos+n) {
			return pos, n
		}
	}
}

// PushBatch enqueues a prefix of xs as one run: it reserves
// min(len(xs), free) consecutive slots with a single compare-and-swap,
// copies the values in, and publishes the run with one header store. It
// returns how many elements it took (0 when the ring is full — the caller
// retries the remainder). Safe for concurrent use by any number of
// producers, and pushes from one goroutine stay FIFO.
//
//robust:hotpath
func (r *Ring) PushBatch(xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	pos, n := r.claim(len(xs))
	if n == 0 {
		return 0
	}
	i := pos & r.mask
	k := copy(r.vals[i:], xs[:n])
	copy(r.vals, xs[k:n])
	r.head[i].Store(pos + n)
	return int(n)
}

// Pop dequeues one element. At most one goroutine may hold the pop role at
// a time (see the type comment).
func (r *Ring) Pop() (int64, bool) {
	var b [1]int64
	n := r.PopInto(b[:])
	return b[0], n == 1
}

// PopInto dequeues up to len(buf) elements into buf, returning how many it
// took. It stops at the first claimed run not yet published, even when
// later runs are. Same pop-role rule as Pop.
//
//robust:hotpath
func (r *Ring) PopInto(buf []int64) int {
	d, e := r.deq.Load(), r.end
	n := 0
	for n < len(buf) {
		if d == e {
			h := r.head[d&r.mask].Load()
			if h <= d {
				break // a header from an earlier lap: the run at d is unpublished
			}
			e = h
		}
		i := d & r.mask
		k := copy(buf[n:], r.vals[i:min(i+(e-d), uint64(len(r.vals)))])
		d += uint64(k)
		n += k
	}
	r.end = e
	if n > 0 {
		r.deq.Store(d)
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

// Pushed returns the number of elements whose push has started on the
// ring. An element whose PushBatch has returned is always counted; the
// FIFO drain barrier in Pipeline.Flush is built on this.
func (r *Ring) Pushed() uint64 { return r.enq.Load() }
