// Package slab is the flat-state allocator behind the multi-tenant sketch
// farm: size-classed arenas of fixed-capacity slots, each slot a run of
// int64 items plus a run of uint64 counter words, with free-list reuse and
// a hard byte bound. A slot holds one tenant sketch's complete mutable
// state (sample items, counters, RNG words) in pointer-free storage, so a
// million tenants cost a handful of large allocations instead of a million
// heap objects — no per-sketch pointer graph for the GC to trace, and hot
// tenants touched together sit densely in memory.
//
// Slots are addressed by packed Ref handles. Storage is carved out of
// fixed-size chunks that are never reallocated, so the slices returned by
// Items and Words stay valid until the slot is freed: a sampler can be
// attached as a view over a slot (sampler.AttachFlat) while other slots
// are allocated concurrently.
//
// The arena is not goroutine-safe; the farm shards it behind per-shard
// locks.
package slab

import (
	"errors"
	"fmt"
)

// Sentinel errors. Wrapped errors carry context; test with errors.Is.
var (
	// ErrArenaFull reports an allocation that would exceed MaxBytes.
	ErrArenaFull = errors.New("slab: arena memory bound exceeded")
	// ErrBadClass reports an out-of-range size-class index or an invalid
	// class configuration.
	ErrBadClass = errors.New("slab: invalid size class")
)

// Class describes one slot size class: every slot in the class holds
// ItemCap int64 items and WordCap uint64 counter words.
type Class struct {
	ItemCap int
	WordCap int
}

// Config tunes an Arena.
type Config struct {
	// MaxBytes bounds the total slot storage the arena may reserve, in
	// bytes; 0 means unbounded. The bound covers the chunk payloads (the
	// dominant term), not the per-chunk slice headers.
	MaxBytes int64
	// SlotsPerChunk is the chunk granularity; 0 selects the default
	// (1024). Larger chunks amortize growth better, smaller chunks track
	// MaxBytes more tightly.
	SlotsPerChunk int
}

const defaultSlotsPerChunk = 1024

// Ref is a packed slot handle: size class in the top 16 bits (offset by
// one so the zero Ref stays invalid), slot index in the low 48.
type Ref uint64

// NilRef is the invalid handle.
const NilRef Ref = 0

const refIndexBits = 48

func packRef(class int, idx uint64) Ref {
	return Ref(uint64(class+1)<<refIndexBits | idx)
}

// Valid reports whether r refers to a slot.
func (r Ref) Valid() bool { return r != NilRef }

// Class returns the size class of the slot r refers to.
func (r Ref) Class() int { return int(r>>refIndexBits) - 1 }

func (r Ref) index() uint64 { return uint64(r) & (1<<refIndexBits - 1) }

// classArena is the per-class storage: parallel chunk lists for items and
// words, a bump pointer, and an intrusive free list threaded through
// words[0] of freed slots (head and links store index+1 so 0 means empty).
type classArena struct {
	itemCap int
	wordCap int
	items   [][]int64
	words   [][]uint64
	next    uint64 // slots ever allocated (bump pointer)
	free    uint64 // free-list head, index+1
	nfree   int
	live    int
}

// Arena allocates fixed-size slots from size-classed chunked storage.
type Arena struct {
	classes []classArena
	spc     int
	max     int64
	bytes   int64
}

// New builds an arena with the given size classes. Class indices passed to
// Alloc refer to positions in this slice. Every class needs ItemCap >= 0,
// WordCap >= 1 (the free list lives in the first word) and at least one of
// them positive.
func New(classes []Class, cfg Config) (*Arena, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadClass)
	}
	spc := cfg.SlotsPerChunk
	if spc <= 0 {
		spc = defaultSlotsPerChunk
	}
	a := &Arena{classes: make([]classArena, len(classes)), spc: spc, max: cfg.MaxBytes}
	for i, c := range classes {
		if c.ItemCap < 0 || c.WordCap < 1 {
			return nil, fmt.Errorf("%w: class %d (%d items, %d words)", ErrBadClass, i, c.ItemCap, c.WordCap)
		}
		a.classes[i] = classArena{itemCap: c.ItemCap, wordCap: c.WordCap}
	}
	return a, nil
}

// chunkBytes is the payload size of one chunk of class c.
func (a *Arena) chunkBytes(c *classArena) int64 {
	return int64(a.spc) * int64(c.itemCap*8+c.wordCap*8)
}

// Alloc reserves a zeroed slot in the given size class. It reuses a freed
// slot when one is available and otherwise bump-allocates, growing by one
// chunk when the class is exhausted; growth that would exceed MaxBytes
// fails with ErrArenaFull and leaves the arena unchanged.
func (a *Arena) Alloc(class int) (Ref, error) {
	if class < 0 || class >= len(a.classes) {
		return NilRef, fmt.Errorf("%w: class %d of %d", ErrBadClass, class, len(a.classes))
	}
	c := &a.classes[class]
	if c.free != 0 {
		idx := c.free - 1
		w := a.slotWords(c, idx)
		c.free = w[0]
		w[0] = 0
		c.nfree--
		c.live++
		return packRef(class, idx), nil
	}
	if c.next == uint64(len(c.items))*uint64(a.spc) {
		grow := a.chunkBytes(c)
		if a.max > 0 && a.bytes+grow > a.max {
			return NilRef, fmt.Errorf("%w: %d + %d bytes over the %d-byte bound", ErrArenaFull, a.bytes, grow, a.max)
		}
		c.items = append(c.items, make([]int64, a.spc*c.itemCap))
		c.words = append(c.words, make([]uint64, a.spc*c.wordCap))
		a.bytes += grow
	}
	idx := c.next
	c.next++
	c.live++
	return packRef(class, idx), nil
}

// Free returns a slot to its class free list, zeroing its storage so the
// next tenant starts from clean state. Freeing NilRef is a no-op.
func (a *Arena) Free(ref Ref) {
	if !ref.Valid() {
		return
	}
	c := &a.classes[ref.Class()]
	idx := ref.index()
	items := a.slotItems(c, idx)
	for i := range items {
		items[i] = 0
	}
	w := a.slotWords(c, idx)
	for i := range w {
		w[i] = 0
	}
	w[0] = c.free
	c.free = idx + 1
	c.nfree++
	c.live--
}

func (a *Arena) slotItems(c *classArena, idx uint64) []int64 {
	chunk, slot := idx/uint64(a.spc), idx%uint64(a.spc)
	off := int(slot) * c.itemCap
	return c.items[chunk][off : off+c.itemCap : off+c.itemCap]
}

func (a *Arena) slotWords(c *classArena, idx uint64) []uint64 {
	chunk, slot := idx/uint64(a.spc), idx%uint64(a.spc)
	off := int(slot) * c.wordCap
	return c.words[chunk][off : off+c.wordCap : off+c.wordCap]
}

// Items returns the slot's item storage: length and capacity are exactly
// the class ItemCap, so appends past capacity spill to the heap instead of
// corrupting neighboring slots. The slice stays valid until Free.
func (a *Arena) Items(ref Ref) []int64 {
	return a.slotItems(&a.classes[ref.Class()], ref.index())
}

// Words returns the slot's counter-word storage (length WordCap). The
// slice stays valid until Free.
func (a *Arena) Words(ref Ref) []uint64 {
	return a.slotWords(&a.classes[ref.Class()], ref.index())
}

// Stats is an allocation snapshot.
type Stats struct {
	// Live is the number of allocated slots.
	Live int
	// Free is the number of slots sitting on free lists.
	Free int
	// Bytes is the slot storage currently reserved from the Go heap.
	Bytes int64
}

// Stats reports current allocation counts.
func (a *Arena) Stats() Stats {
	s := Stats{Bytes: a.bytes}
	for i := range a.classes {
		s.Live += a.classes[i].live
		s.Free += a.classes[i].nfree
	}
	return s
}
