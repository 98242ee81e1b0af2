// Incremental discrepancy engine, block/convex-hull edition.
//
// The continuous adaptive game (Figure 2) re-evaluates the exact
// eps-approximation error at many checkpoints of the same growing stream.
// The first incremental engine replaced per-checkpoint re-sorts with
// coordinate-compressed histograms and a single sweep over distinct values —
// O(U) per verdict for U distinct values. This version makes the verdict
// itself sublinear: distinct values are grouped into ~sqrt(U) sorted blocks,
// and each block caches the upper and lower convex hulls of its local
// cumulative-count points
//
//	P_j = (Cs_local(j), Cx_local(j))
//
// (prefix sums of the sample/stream multiplicities within the block). The
// quantity the verdict extremizes,
//
//	num(t) = Cx(t)*|S| - Cs(t)*|X|,
//
// is linear in P with global coefficients (|S|, -|X|), so its restriction to
// one block is a per-checkpoint constant (the block-offset part, computed by
// one prefix pass over block totals) plus a linear functional of the local
// point — and a linear functional is extremized over a point set at a vertex
// of its convex hull, found by binary search along the hull. A verdict
// therefore costs O(dirty*B + (U/B)*log B): only blocks whose counts
// changed since the last checkpoint pay O(B), and clean blocks answer in
// O(log B).
//
// Hull building follows a hysteresis rule: a block touched since the last
// checkpoint is answered by a direct O(B) sweep (the flat engine's cost,
// confined to the block — building a hull that the next update would
// invalidate is wasted work), and its hulls are (re)built only at the first
// checkpoint that finds the block unchanged, i.e. once the investment can
// be amortized over future O(log B) queries. Checkpoint-dense runs — the
// regime this engine targets — leave most blocks untouched between
// verdicts, so almost every block answers from a cached hull; span-heavy
// runs degrade gracefully to the flat sweep, never worse than it.
//
// Exactness is preserved bit-for-bit with the one-shot MaxDiscrepancy: all
// extrema are integer comparisons of the same num(t) values the sweep
// computes (hull arithmetic is exact int64), witness ties are resolved by
// rescanning the first block that attains the global extremum — reproducing
// the sweep's first-position-wins rule literally — and the single float
// division happens identically. Max() returns the same Discrepancy (error
// AND witness) as MaxDiscrepancy on the equivalent multisets, for all four
// set systems.
package setsystem

import (
	"math"
	"slices"
)

// accMode selects which set system's supremum an Accumulator computes.
type accMode int

const (
	accPrefixes accMode = iota
	accIntervals
	accSingletons
	accSuffixes
)

// hullPoint is one local cumulative-count point (x = Cs_local, y = Cx_local);
// in singleton mode, one per-value point (x = cs, y = cx).
type hullPoint struct{ x, y int64 }

// accBlock is one block of the sqrt-decomposition: a run of consecutive
// distinct values (sorted slots) with cached aggregates and convex hulls.
type accBlock struct {
	slots []int32 // compression slots, ascending by value

	// Aggregates maintained O(1) per update; the verdict's prefix pass
	// turns them into block offsets without touching the slots.
	sumCx int64 // total stream multiplicity in the block
	sumCs int64 // total sample multiplicity in the block
	nzCx  int   // number of slots with cx > 0
	maxCx int64 // max per-slot cx (monotone: streams only grow)

	touched   bool // counts changed since the last verdict
	hullValid bool // upper/lower reflect the current counts

	// upper/lower are the convex hulls of the block's points, built
	// lazily once the block goes quiet (see the hysteresis rule in the
	// package comment): num restricted to the block is maximized on
	// upper and minimized on lower for every checkpoint's (|S|, -|X|).
	upper []hullPoint
	lower []hullPoint
}

// minBlockLen floors the block-length target so tiny accumulators keep one
// flat block (a plain sweep) instead of pathological 1-element blocks.
const minBlockLen = 64

// Accumulator incrementally maintains the exact discrepancy between a stream
// and a sample multiset for one set system. Elements enter the stream via
// AddStream/AddStreamBatch and enter/leave the sample via
// AddSample/RemoveSample (the reservoir eviction path), each in O(1)
// expected time; Max returns the exact Discrepancy of the current multisets
// in time sublinear in the number of distinct values (see the package
// comment).
//
// Every distinct value gets a compression slot, and the value -> slot index
// sits on the per-element hot path, so it takes whichever of two forms is
// the smaller. It starts as an epoch-stamped open-addressing table (16 B
// per probe slot). When that table would grow to at least (U+1)/4 probe
// slots, a flat table over [0, U] (4 B per value, one indexed load per
// lookup) takes its place instead, so the flat table is never larger than
// the probe table it replaces; Reserve makes the same choice up front.
// Values outside [0, U] stay in the probe table either way. Slot order, and
// so Max and the snapshot bytes, does not depend on the form.
//
// The zero value is not valid; obtain one from SetSystem.NewAccumulator.
// An Accumulator is not safe for concurrent use.
type Accumulator struct {
	mode     accMode
	universe int64

	// Coordinate compression: every distinct value ever seen gets a slot.
	// flat maps a value in [0, universe] to slot+1 (0: unseen); it is nil
	// until the switch described above. index, a bespoke epoch-stamped
	// open-addressing table, holds every value flat does not cover: its
	// lookups cost one multiply-hash and usually one probe, and Reset
	// invalidates every entry with a single epoch bump instead of a map
	// clear.
	flat  []int32
	index accIndex
	vals  []int64 // slot -> value
	cx    []int64 // slot -> multiplicity in the stream
	cs    []int64 // slot -> multiplicity in the sample

	// Block decomposition over slots sorted by value. Slots created since
	// the last Max wait in pending (blockOf nil) so updates stay O(1);
	// Max distributes them into blocks, splitting oversized ones.
	blocks    []*accBlock
	blockOf   []*accBlock // slot -> owning block, nil while pending
	pending   []int32
	blockB    int         // target block length, grown toward sqrt(distinct)
	blockPool []*accBlock // retired blocks recycled by Reset/splits

	// Scratch buffers reused across Max calls (no steady-state allocs).
	ptScratch   []hullPoint
	packScratch []uint64 // packed (value, slot) pairs for closure-free sorts
	radixBuf    []uint64 // radix-sort ping-pong buffer
	bmax, bmin  []int64  // per-block extrema of num for the current verdict

	// unpackable is set once any value falls outside [0, 2^31): such
	// values cannot share a word with a slot id, so pending sorts fall
	// back to the comparator path.
	unpackable bool

	nx, ns int64 // |X|, |S|
}

func newAccumulator(mode accMode, universe int64) *Accumulator {
	a := &Accumulator{
		mode:     mode,
		universe: universe,
		blockB:   minBlockLen,
	}
	a.index.init(16)
	return a
}

// NewAccumulator returns an empty incremental engine for the prefix system.
func (p Prefixes) NewAccumulator() *Accumulator { return newAccumulator(accPrefixes, p.n) }

// NewAccumulator returns an empty incremental engine for the interval system.
func (iv Intervals) NewAccumulator() *Accumulator { return newAccumulator(accIntervals, iv.n) }

// NewAccumulator returns an empty incremental engine for the singleton system.
func (s Singletons) NewAccumulator() *Accumulator { return newAccumulator(accSingletons, s.n) }

// NewAccumulator returns an empty incremental engine for the suffix system.
func (s Suffixes) NewAccumulator() *Accumulator { return newAccumulator(accSuffixes, s.n) }

// Reserve pre-sizes the compression tables for approximately distinct
// distinct values, avoiding incremental index growth on the per-element hot
// path, and fixes the block-length target at ~sqrt(distinct) up front. The
// index takes the form a grow would: the flat table when it is no larger
// than the probe table distinct values need, that probe table otherwise. It
// is a no-op unless the accumulator is still empty; on a Reset accumulator
// it re-allocates only what the previous run's capacity cannot already
// serve, so Monte-Carlo drivers reusing one engine across games allocate
// nothing in steady state.
func (a *Accumulator) Reserve(distinct int) {
	if distinct <= 0 || len(a.vals) > 0 {
		return
	}
	if a.flat == nil && 2*distinct > len(a.index.keys) {
		if size := probeSize(distinct); a.flatFits(size) {
			a.flat = make([]int32, a.universe+1)
		} else {
			a.index.init(distinct)
		}
	}
	if cap(a.vals) < distinct {
		a.vals = make([]int64, 0, distinct)
		a.cx = make([]int64, 0, distinct)
		a.cs = make([]int64, 0, distinct)
		a.blockOf = make([]*accBlock, 0, distinct)
		a.pending = make([]int32, 0, distinct)
	}
	if b := int(math.Sqrt(float64(distinct))); b > a.blockB {
		a.blockB = b
	}
}

// accIndex is the probe form of the value -> slot index: open addressing
// with linear probing, SplitMix-style multiply hashing, and epoch-stamped
// entries so that invalidating the whole table (a new game on a reused
// accumulator) is one epoch bump. A stale entry behaves exactly like an
// empty one; within an epoch this is standard linear probing with no
// deletions.
type accIndex struct {
	keys  []int64
	meta  []uint64 // epoch<<32 | slot; live iff epoch matches
	mask  uint64
	epoch uint64 // current epoch, pre-shifted into the meta layout
	live  int    // entries inserted this epoch (for the growth threshold)
}

func hashKey(x int64) uint64 {
	h := uint64(x)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// probeSize is the number of probe slots init gives capacity entries.
func probeSize(capacity int) int {
	size := 16
	for size < 2*capacity {
		size <<= 1
	}
	return size
}

func (ix *accIndex) init(capacity int) {
	size := probeSize(capacity)
	ix.keys = make([]int64, size)
	ix.meta = make([]uint64, size)
	ix.mask = uint64(size - 1)
	ix.epoch = 1 << 32
	ix.live = 0
}

// reset invalidates every entry in O(1); the table is re-zeroed only when
// the 32-bit epoch wraps.
func (ix *accIndex) reset() {
	if ix.keys == nil {
		ix.init(16)
		return
	}
	ix.epoch += 1 << 32
	if ix.epoch>>32 == 0 {
		clear(ix.meta)
		ix.epoch = 1 << 32
	}
	ix.live = 0
}

func (ix *accIndex) lookup(x int64) (int32, bool) {
	for h := hashKey(x) & ix.mask; ; h = (h + 1) & ix.mask {
		m := ix.meta[h]
		if m>>32 != ix.epoch>>32 {
			return 0, false
		}
		if ix.keys[h] == x {
			return int32(uint32(m)), true
		}
	}
}

// full reports whether the next insert grows the table.
func (ix *accIndex) full() bool { return ix.live >= len(ix.keys)*3/4 }

// insert adds x -> slot; x must not be present this epoch.
func (ix *accIndex) insert(x int64, slot int32) {
	if ix.full() {
		ix.grow()
	}
	h := hashKey(x) & ix.mask
	for ix.meta[h]>>32 == ix.epoch>>32 {
		h = (h + 1) & ix.mask
	}
	ix.keys[h] = x
	ix.meta[h] = ix.epoch | uint64(uint32(slot))
	ix.live++
}

func (ix *accIndex) grow() {
	oldKeys, oldMeta, oldEpoch := ix.keys, ix.meta, ix.epoch>>32
	ix.init(len(oldKeys)) // doubles: init sizes to 2*capacity
	for i, m := range oldMeta {
		if m>>32 == oldEpoch {
			h := hashKey(oldKeys[i]) & ix.mask
			for ix.meta[h]>>32 == ix.epoch>>32 {
				h = (h + 1) & ix.mask
			}
			ix.keys[h] = oldKeys[i]
			ix.meta[h] = ix.epoch | uint64(uint32(m))
			ix.live++
		}
	}
}

// flatFits reports whether the flat table (4 B per value of [0, U]) is no
// larger than a probe table of size slots (16 B each): U+1 <= 4*size.
func (a *Accumulator) flatFits(size int) bool {
	return a.universe < 4*int64(size)
}

// lookup returns x's compression slot, if x has one.
func (a *Accumulator) lookup(x int64) (int32, bool) {
	if uint64(x) < uint64(len(a.flat)) {
		s := a.flat[x]
		return s - 1, s != 0
	}
	return a.index.lookup(x)
}

// flatSlot returns x's slot from the flat table, or -1 when the flat table
// holds no slot for x. It inlines, so a bulk loop pays no call per hit.
func (a *Accumulator) flatSlot(x int64) int32 {
	if uint64(x) < uint64(len(a.flat)) {
		return a.flat[x] - 1
	}
	return -1
}

// slot returns the compression slot for x, creating one on first sight.
// It repeats lookup's two forms rather than calling it: slot is on the
// game's per-round path, where that call cost ~10% of a point update.
func (a *Accumulator) slot(x int64) int32 {
	if uint64(x) < uint64(len(a.flat)) {
		if s := a.flat[x]; s != 0 {
			return s - 1
		}
	} else if i, ok := a.index.lookup(x); ok {
		return i
	}
	return a.newSlot(x)
}

// newSlot gives x, which has no slot yet, the next one. A probe table that
// would grow is replaced by the flat table instead when that is no larger
// than the grown probe table.
func (a *Accumulator) newSlot(x int64) int32 {
	i := int32(len(a.vals))
	if x < 0 || x >= 1<<31 {
		a.unpackable = true
	}
	a.vals = append(a.vals, x)
	a.cx = append(a.cx, 0)
	a.cs = append(a.cs, 0)
	a.blockOf = append(a.blockOf, nil)
	a.pending = append(a.pending, i)
	if a.flat == nil && a.index.full() && a.flatFits(2*len(a.index.keys)) {
		a.toFlat()
		return i
	}
	if uint64(x) < uint64(len(a.flat)) {
		a.flat[x] = i + 1
	} else {
		a.index.insert(x, i)
	}
	return i
}

// toFlat switches the index to the flat table: every slot's value in
// [0, U] moves there, and the probe table is rebuilt at the size the
// values outside [0, U] need.
func (a *Accumulator) toFlat() {
	a.flat = make([]int32, a.universe+1)
	outside := 0
	for i, v := range a.vals {
		if uint64(v) < uint64(len(a.flat)) {
			a.flat[v] = int32(i) + 1
		} else {
			outside++
		}
	}
	a.index.init(outside)
	for i, v := range a.vals {
		if uint64(v) >= uint64(len(a.flat)) {
			a.index.insert(v, int32(i))
		}
	}
}

// AddStream appends one element to the stream multiset.
func (a *Accumulator) AddStream(x int64) {
	a.countStream(a.slot(x))
	a.nx++
}

// countStream adds one stream copy to slot s and its block's aggregates.
func (a *Accumulator) countStream(s int32) {
	a.cx[s]++
	if b := a.blockOf[s]; b != nil {
		b.sumCx++
		if a.cx[s] == 1 {
			b.nzCx++
		}
		if a.cx[s] > b.maxCx {
			b.maxCx = a.cx[s]
		}
		b.touched = true
		b.hullValid = false
	}
}

// AddStreamBatch appends a run of consecutive stream elements. It is the
// bulk-ingest form of AddStream used by the batched span loop of the
// continuous game; semantically identical to calling AddStream in order.
//
//robust:hotpath
func (a *Accumulator) AddStreamBatch(xs []int64) {
	for _, x := range xs {
		s := a.flatSlot(x)
		if s < 0 {
			s = a.slot(x)
		}
		a.countStream(s)
	}
	a.nx += int64(len(xs))
}

// AddStreamAndSampleBatch ingests a run of elements into BOTH multisets:
// equivalent to AddStream(x) plus AddSample(x) for each element, at one
// index lookup instead of two. The continuous game uses it for spans where
// the sampler admitted every element with no evictions (a filling
// reservoir), which is where high-rate samplers spend most of their rounds.
//
//robust:hotpath
func (a *Accumulator) AddStreamAndSampleBatch(xs []int64) {
	for _, x := range xs {
		s := a.flatSlot(x)
		if s < 0 {
			s = a.slot(x)
		}
		a.cx[s]++
		a.cs[s]++
		if b := a.blockOf[s]; b != nil {
			b.sumCx++
			b.sumCs++
			if a.cx[s] == 1 {
				b.nzCx++
			}
			if a.cx[s] > b.maxCx {
				b.maxCx = a.cx[s]
			}
			b.touched = true
			b.hullValid = false
		}
	}
	a.nx += int64(len(xs))
	a.ns += int64(len(xs))
}

// AddSample adds one element to the sample multiset.
func (a *Accumulator) AddSample(x int64) {
	s := a.slot(x)
	a.cs[s]++
	a.ns++
	if b := a.blockOf[s]; b != nil {
		b.sumCs++
		b.touched = true
		b.hullValid = false
	}
}

// RemoveSample removes one copy of x from the sample multiset — the
// reservoir eviction path. It panics if x is not currently in the sample.
func (a *Accumulator) RemoveSample(x int64) {
	i, ok := a.lookup(x)
	if !ok || a.cs[i] == 0 {
		panic("setsystem: RemoveSample of element not in sample")
	}
	a.cs[i]--
	a.ns--
	if b := a.blockOf[i]; b != nil {
		b.sumCs--
		b.touched = true
		b.hullValid = false
	}
}

// StreamLen returns the number of stream elements added so far.
func (a *Accumulator) StreamLen() int { return int(a.nx) }

// SampleLen returns the current sample multiset size.
func (a *Accumulator) SampleLen() int { return int(a.ns) }

// Reset clears the accumulator for a fresh stream, retaining allocations:
// the compression tables keep their capacity and form (the probe table is
// invalidated by one epoch bump, the flat table by zeroing the entries of
// the slots in use, O(distinct)) and retired blocks (slot and hull storage
// included) go to a free list for the next run's placement, so a reused
// engine allocates nothing in steady state.
func (a *Accumulator) Reset() {
	if a.flat != nil {
		for _, v := range a.vals {
			if uint64(v) < uint64(len(a.flat)) {
				a.flat[v] = 0
			}
		}
	}
	a.index.reset()
	a.vals = a.vals[:0]
	a.cx = a.cx[:0]
	a.cs = a.cs[:0]
	a.blockPool = append(a.blockPool, a.blocks...)
	a.blocks = a.blocks[:0]
	a.blockOf = a.blockOf[:0]
	a.pending = a.pending[:0]
	a.unpackable = false
	a.nx, a.ns = 0, 0
}

// newBlock returns a cleared block, recycling retired storage when
// available.
func (a *Accumulator) newBlock(slots []int32) *accBlock {
	if n := len(a.blockPool); n > 0 {
		b := a.blockPool[n-1]
		a.blockPool[n-1] = nil
		a.blockPool = a.blockPool[:n-1]
		b.slots = append(b.slots[:0], slots...)
		b.upper = b.upper[:0]
		b.lower = b.lower[:0]
		return b
	}
	return &accBlock{slots: append([]int32(nil), slots...)}
}

// placePending distributes slots created since the last Max into blocks,
// keeping each block's slots sorted by value, then splits oversized blocks.
func (a *Accumulator) placePending() {
	if len(a.pending) == 0 {
		return
	}
	if !a.unpackable {
		// Closure-free sort: pack (value, slot) into one word — values are
		// distinct across slots, so the packed order is the value order —
		// then radix-sort on the value bytes (insertion sort below the
		// radix break-even). This is the hottest part of a verdict after a
		// long span of fresh values.
		buf := a.packScratch[:0]
		for _, s := range a.pending {
			buf = append(buf, uint64(a.vals[s])<<32|uint64(uint32(s)))
		}
		a.packScratch = buf
		a.sortPacked(buf)
		for i, v := range buf {
			a.pending[i] = int32(uint32(v))
		}
	} else {
		slices.SortFunc(a.pending, func(i, j int32) int {
			switch {
			case a.vals[i] < a.vals[j]:
				return -1
			case a.vals[i] > a.vals[j]:
				return 1
			}
			return 0
		})
	}
	if b := int(math.Sqrt(float64(len(a.vals)))); b > a.blockB {
		a.blockB = b
	}
	if len(a.blocks) == 0 {
		for i := 0; i < len(a.pending); i += a.blockB {
			j := min(i+a.blockB, len(a.pending))
			b := a.newBlock(a.pending[i:j])
			a.adoptBlock(b)
			a.blocks = append(a.blocks, b)
		}
		a.pending = a.pending[:0]
		return
	}
	p := 0
	for bi, b := range a.blocks {
		if p >= len(a.pending) {
			break
		}
		hi := len(a.pending)
		if bi < len(a.blocks)-1 {
			// This block takes the pending values at or below its
			// current maximum; the rest belong to later blocks (the
			// last block takes everything above all maxima).
			maxV := a.vals[b.slots[len(b.slots)-1]]
			lo, up := p, len(a.pending)
			for lo < up {
				mid := (lo + up) / 2
				if a.vals[a.pending[mid]] < maxV {
					lo = mid + 1
				} else {
					up = mid
				}
			}
			hi = lo
		}
		if hi == p {
			continue
		}
		a.mergeInto(b, a.pending[p:hi])
		p = hi
	}
	a.pending = a.pending[:0]
	a.splitOversized()
}

// sortPacked sorts packed (value, slot) words ascending: insertion sort for
// short runs, and above the break-even an LSD radix sort on the value
// bytes, one stable 8-bit pass per byte the largest value uses (two for
// values below 2^12, three below 2^20), as radixSort counts its passes for
// the one-shot path. Packed values are never negative, so the count needs
// no offset from the smallest.
func (a *Accumulator) sortPacked(buf []uint64) {
	if len(buf) <= 48 {
		for i := 1; i < len(buf); i++ {
			v := buf[i]
			j := i - 1
			for j >= 0 && buf[j] > v {
				buf[j+1] = buf[j]
				j--
			}
			buf[j+1] = v
		}
		return
	}
	if cap(a.radixBuf) < len(buf) {
		a.radixBuf = make([]uint64, len(buf))
	}
	tmp := a.radixBuf[:len(buf)]
	var counts [4][256]int
	var or uint64
	for _, v := range buf {
		or |= v
		counts[0][byte(v>>32)]++
		counts[1][byte(v>>40)]++
		counts[2][byte(v>>48)]++
		counts[3][byte(v>>56)]++
	}
	passes := 0
	for ; passes < 4 && or>>(32+8*passes) != 0; passes++ {
	}
	src, dst := buf, tmp
	for pass := 0; pass < passes; pass++ {
		c := &counts[pass]
		pos := 0
		for i := range c {
			n := c[i]
			c[i] = pos
			pos += n
		}
		shift := uint(32 + 8*pass)
		for _, v := range src {
			b := byte(v >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(buf, src) // the sorted run ended in the scratch buffer
	}
}

// mergeInto merges the sorted group of new slots into the block's sorted
// slots — backwards, in place — and folds their counts into the block
// aggregates.
func (a *Accumulator) mergeInto(b *accBlock, group []int32) {
	old := len(b.slots)
	b.slots = append(b.slots, group...)
	i, j := old-1, len(group)-1
	for k := len(b.slots) - 1; j >= 0; k-- {
		if i >= 0 && a.vals[b.slots[i]] > a.vals[group[j]] {
			b.slots[k] = b.slots[i]
			i--
		} else {
			b.slots[k] = group[j]
			j--
		}
	}
	for _, s := range group {
		a.blockOf[s] = b
		b.sumCx += a.cx[s]
		b.sumCs += a.cs[s]
		if a.cx[s] > 0 {
			b.nzCx++
		}
		if a.cx[s] > b.maxCx {
			b.maxCx = a.cx[s]
		}
	}
	b.touched = true
	b.hullValid = false
}

// adoptBlock computes a freshly built block's aggregates and points its
// slots at it; the block starts touched with no valid hulls.
func (a *Accumulator) adoptBlock(b *accBlock) {
	b.sumCx, b.sumCs, b.nzCx, b.maxCx = 0, 0, 0, 0
	b.touched = true
	b.hullValid = false
	for _, s := range b.slots {
		a.blockOf[s] = b
		b.sumCx += a.cx[s]
		b.sumCs += a.cs[s]
		if a.cx[s] > 0 {
			b.nzCx++
		}
		if a.cx[s] > b.maxCx {
			b.maxCx = a.cx[s]
		}
	}
}

// splitOversized splits any block that grew beyond twice the target length
// into target-length blocks, keeping amortized insertion cost O(1) per slot.
func (a *Accumulator) splitOversized() {
	over := false
	for _, b := range a.blocks {
		if len(b.slots) > 2*a.blockB {
			over = true
			break
		}
	}
	if !over {
		return
	}
	newBlocks := make([]*accBlock, 0, len(a.blocks)+4)
	for _, b := range a.blocks {
		if len(b.slots) <= 2*a.blockB {
			newBlocks = append(newBlocks, b)
			continue
		}
		for i := 0; i < len(b.slots); i += a.blockB {
			j := min(i+a.blockB, len(b.slots))
			nb := a.newBlock(b.slots[i:j])
			a.adoptBlock(nb)
			newBlocks = append(newBlocks, nb)
		}
		a.blockPool = append(a.blockPool, b)
	}
	a.blocks = newBlocks
}

// rebuildHulls recomputes a block's convex hulls from its current counts:
// local cumulative (Cs, Cx) prefix points for the CDF systems, per-value
// (cs, cx) points for singletons.
func (a *Accumulator) rebuildHulls(b *accBlock) {
	b.upper = b.upper[:0]
	b.lower = b.lower[:0]
	if a.mode == accSingletons {
		pts := a.ptScratch[:0]
		for _, s := range b.slots {
			pts = append(pts, hullPoint{a.cs[s], a.cx[s]})
		}
		slices.SortFunc(pts, func(p, q hullPoint) int {
			switch {
			case p.x != q.x:
				if p.x < q.x {
					return -1
				}
				return 1
			case p.y != q.y:
				if p.y < q.y {
					return -1
				}
				return 1
			}
			return 0
		})
		for _, p := range pts {
			b.upper = pushUpper(b.upper, p)
			b.lower = pushLower(b.lower, p)
		}
		a.ptScratch = pts
		return
	}
	var px, py int64
	for _, s := range b.slots {
		px += a.cs[s]
		py += a.cx[s]
		b.upper = pushUpper(b.upper, hullPoint{px, py})
		b.lower = pushLower(b.lower, hullPoint{px, py})
	}
}

// cross is the z-component of (a-o) x (b-o): positive for a left turn.
func cross(o, p, q hullPoint) int64 {
	return (p.x-o.x)*(q.y-o.y) - (p.y-o.y)*(q.x-o.x)
}

// pushUpper appends p to an upper hull under construction (points arrive in
// nondecreasing x), popping points that are not strict right turns.
func pushUpper(h []hullPoint, p hullPoint) []hullPoint {
	for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) >= 0 {
		h = h[:len(h)-1]
	}
	return append(h, p)
}

// pushLower is the lower-hull analogue: pops points that are not strict
// left turns.
func pushLower(h []hullPoint, p hullPoint) []hullPoint {
	for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
		h = h[:len(h)-1]
	}
	return append(h, p)
}

// hullMax returns max over the upper hull of s*y - n*x (s, n >= 0). The
// functional along the hull is unimodal (edge slopes strictly decrease), so
// the peak is found by binary search on the edge-difference sign.
func hullMax(h []hullPoint, s, n int64) int64 {
	lo, hi := 0, len(h)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s*(h[mid+1].y-h[mid].y)-n*(h[mid+1].x-h[mid].x) > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s*h[lo].y - n*h[lo].x
}

// hullMin returns min over the lower hull of s*y - n*x, symmetrically.
func hullMin(h []hullPoint, s, n int64) int64 {
	lo, hi := 0, len(h)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s*(h[mid+1].y-h[mid].y)-n*(h[mid+1].x-h[mid].x) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s*h[lo].y - n*h[lo].x
}

// Witness-rescan kinds: which predicate the first-position scan matches.
const (
	scanNumEquals = iota // first position with num == target
	scanAbsEquals        // first position with |num| == target
	scanCxEquals         // first slot with cx == target (singleton, |S|=0)
	scanAbsPoint         // first slot with |cx*ns - cs*nx| == target
	scanCxNonzero        // first slot with cx > 0 (empty-sample witness)
)

// rescanBlock re-runs the literal sweep inside one block and returns the
// value at the first position satisfying the kind/target predicate. This is
// how witness ties stay bit-identical to the one-shot sweep: the hulls
// locate which block attains a global extremum and its exact value; the
// first position attaining it is then found by the same first-position-wins
// scan the sweep performs.
func (a *Accumulator) rescanBlock(idx int, kind int, target int64) int64 {
	b := a.blocks[idx]
	var offCx, offCs int64
	for i := 0; i < idx; i++ {
		offCx += a.blocks[i].sumCx
		offCs += a.blocks[i].sumCs
	}
	num := a.ns*offCx - a.nx*offCs
	for _, s := range b.slots {
		switch kind {
		case scanNumEquals, scanAbsEquals:
			num += a.cx[s]*a.ns - a.cs[s]*a.nx
			if kind == scanNumEquals && num == target {
				return a.vals[s]
			}
			if kind == scanAbsEquals && abs64(num) == target {
				return a.vals[s]
			}
		case scanCxEquals:
			if a.cx[s] == target {
				return a.vals[s]
			}
		case scanAbsPoint:
			if abs64(a.cx[s]*a.ns-a.cs[s]*a.nx) == target {
				return a.vals[s]
			}
		case scanCxNonzero:
			if a.cx[s] > 0 {
				return a.vals[s]
			}
		}
	}
	panic("setsystem: block witness rescan found no match")
}

// blockExtrema returns the extrema of num over one block's positions for
// the current (|S|, -|X|): from the cached hulls when valid, by a direct
// O(B) sweep when the block changed since the last verdict, and by a hull
// (re)build — investing O(B) once so later verdicts pay O(log B) — when the
// block has gone quiet with stale hulls. c is the block-offset constant
// (ignored in singleton mode, whose deviations do not accumulate).
func (a *Accumulator) blockExtrema(b *accBlock, c int64) (mx, mn int64) {
	if !b.hullValid {
		if b.touched {
			b.touched = false
			if a.mode == accSingletons {
				return a.sweepBlockPoints(b)
			}
			return a.sweepBlockCDF(b, c)
		}
		a.rebuildHulls(b)
		b.hullValid = true
	}
	mx = c + hullMax(b.upper, a.ns, a.nx)
	mn = c + hullMin(b.lower, a.ns, a.nx)
	return mx, mn
}

// sweepBlockCDF is the flat engine confined to one block: accumulate num
// from the block-offset constant and track its extrema over the block's
// positions.
func (a *Accumulator) sweepBlockCDF(b *accBlock, c int64) (mx, mn int64) {
	num := c
	first := true
	for _, s := range b.slots {
		num += a.cx[s]*a.ns - a.cs[s]*a.nx
		if first {
			mx, mn = num, num
			first = false
			continue
		}
		if num > mx {
			mx = num
		}
		if num < mn {
			mn = num
		}
	}
	return mx, mn
}

// sweepBlockPoints is the singleton-mode sweep: extrema of the per-value
// deviation cx*|S| - cs*|X| over the block's slots.
func (a *Accumulator) sweepBlockPoints(b *accBlock) (mx, mn int64) {
	first := true
	for _, s := range b.slots {
		f := a.cx[s]*a.ns - a.cs[s]*a.nx
		if first {
			mx, mn = f, f
			first = false
			continue
		}
		if f > mx {
			mx = f
		}
		if f < mn {
			mn = f
		}
	}
	return mx, mn
}

// Max returns the exact discrepancy of the current stream/sample multisets,
// identical (error and witness) to the set system's MaxDiscrepancy on the
// same contents.
func (a *Accumulator) Max() Discrepancy {
	a.placePending()
	if a.nx == 0 {
		return Discrepancy{}
	}
	if a.mode == accSingletons {
		return a.maxSingletons()
	}
	if a.ns == 0 {
		return a.emptySampleCDF()
	}

	// Per-block extrema of num(t): block-offset constant plus a hull query
	// (or dirty-block sweep) in direction (|S|, -|X|). The scan keeps the
	// FIRST block attaining each global extremum (strict comparisons),
	// mirroring the sweep's first-position-wins updates.
	nb := len(a.blocks)
	if cap(a.bmax) < nb {
		a.bmax = make([]int64, nb)
		a.bmin = make([]int64, nb)
	}
	bmax := a.bmax[:nb]
	bmin := a.bmin[:nb]
	var offCx, offCs int64
	gmaxIdx, gminIdx := -1, -1
	var gmax, gmin int64
	for i, b := range a.blocks {
		c := a.ns*offCx - a.nx*offCs
		mx, mn := a.blockExtrema(b, c)
		bmax[i], bmin[i] = mx, mn
		if gmaxIdx < 0 || mx > gmax {
			gmax, gmaxIdx = mx, i
		}
		if gminIdx < 0 || mn < gmin {
			gmin, gminIdx = mn, i
		}
		offCx += b.sumCx
		offCs += b.sumCs
	}

	// Fold in the sweep's baseline: maxD/minD/bestAbs start at 0 at the
	// virtual position 0 (the empty prefix), witnesses defaulting to 0.
	denom := float64(a.nx) * float64(a.ns)
	switch a.mode {
	case accPrefixes, accSuffixes:
		bestAbs := max(gmax, -gmin, 0)
		var bestAbsAt int64
		if bestAbs > 0 {
			for i := range bmax {
				if bmax[i] == bestAbs || bmin[i] == -bestAbs {
					bestAbsAt = a.rescanBlock(i, scanAbsEquals, bestAbs)
					break
				}
			}
		}
		if a.mode == accPrefixes {
			return Discrepancy{Err: float64(bestAbs) / denom, Lo: 1, Hi: bestAbsAt}
		}
		lo := bestAbsAt + 1
		if lo > a.universe {
			lo = a.universe
		}
		return Discrepancy{Err: float64(bestAbs) / denom, Lo: lo, Hi: a.universe}
	default: // accIntervals
		var maxD, minD, maxAt, minAt int64
		if gmax > 0 {
			maxD = gmax
			maxAt = a.rescanBlock(gmaxIdx, scanNumEquals, gmax)
		}
		if gmin < 0 {
			minD = gmin
			minAt = a.rescanBlock(gminIdx, scanNumEquals, gmin)
		}
		err := float64(maxD-minD) / denom
		lo, hi := minAt+1, maxAt
		if maxAt < minAt {
			lo, hi = maxAt+1, minAt
		}
		if lo > hi {
			lo, hi = 1, 1
		}
		return Discrepancy{Err: err, Lo: lo, Hi: hi}
	}
}

// emptySampleCDF mirrors cdfScan's empty-sample special case: the range
// containing everything has density 1 in the stream and 0 in the sample.
// The min/max stream values come from the first/last blocks holding any
// stream mass, each resolved by one block scan.
func (a *Accumulator) emptySampleCDF() Discrepancy {
	var minV, maxV int64
	for i := 0; i < len(a.blocks); i++ {
		if a.blocks[i].nzCx > 0 {
			minV = a.rescanBlock(i, scanCxNonzero, 0)
			break
		}
	}
	for i := len(a.blocks) - 1; i >= 0; i-- {
		b := a.blocks[i]
		if b.nzCx == 0 {
			continue
		}
		for j := len(b.slots) - 1; j >= 0; j-- {
			if a.cx[b.slots[j]] > 0 {
				maxV = a.vals[b.slots[j]]
				break
			}
		}
		break
	}
	switch a.mode {
	case accIntervals:
		return Discrepancy{Err: 1, Lo: minV, Hi: maxV}
	case accSuffixes:
		lo := maxV + 1
		if lo > a.universe {
			lo = a.universe
		}
		return Discrepancy{Err: 1, Lo: lo, Hi: a.universe}
	default: // accPrefixes
		return Discrepancy{Err: 1, Lo: 1, Hi: maxV}
	}
}

// maxSingletons mirrors Singletons.MaxDiscrepancy: the best value by exact
// integer comparison, ties broken toward the smallest value. Per-value
// deviations are linear in the per-slot point (cs, cx), so block hulls
// answer in O(log B) exactly as in the CDF systems — without offsets, since
// singleton deviations do not accumulate across values.
func (a *Accumulator) maxSingletons() Discrepancy {
	if a.ns == 0 {
		var bestC int64
		idx := -1
		for i, b := range a.blocks {
			if b.maxCx > bestC {
				bestC = b.maxCx
				idx = i
			}
		}
		if idx < 0 {
			return Discrepancy{Err: 0, Lo: 0, Hi: 0}
		}
		at := a.rescanBlock(idx, scanCxEquals, bestC)
		return Discrepancy{Err: float64(bestC) / float64(a.nx), Lo: at, Hi: at}
	}
	var bestNum int64
	idx := -1
	for i, b := range a.blocks {
		mx, mn := a.blockExtrema(b, 0)
		if -mn > mx {
			mx = -mn
		}
		if mx > bestNum {
			bestNum = mx
			idx = i
		}
	}
	if bestNum == 0 {
		// Perfect agreement: identical to the one-shot's zero value.
		return Discrepancy{}
	}
	at := a.rescanBlock(idx, scanAbsPoint, bestNum)
	return Discrepancy{Err: float64(bestNum) / (float64(a.nx) * float64(a.ns)), Lo: at, Hi: at}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
