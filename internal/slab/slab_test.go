package slab

import (
	"errors"
	"testing"
)

// ItemCap returns the item capacity of a size class.
func (a *Arena) ItemCap(class int) int { return a.classes[class].itemCap }

// Classes returns the number of size classes.
func (a *Arena) Classes() int { return len(a.classes) }

func TestAllocFreeReuse(t *testing.T) {
	a, err := New([]Class{{ItemCap: 4, WordCap: 2}}, Config{SlotsPerChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("distinct allocations share a ref")
	}
	if !r1.Valid() || NilRef.Valid() {
		t.Fatal("validity misreported")
	}
	copy(a.Items(r1), []int64{1, 2, 3, 4})
	a.Words(r1)[1] = 99
	if got := a.Items(r2); got[0] != 0 {
		t.Fatal("fresh slot not zeroed")
	}
	a.Free(r1)
	if s := a.Stats(); s.Live != 1 || s.Free != 1 {
		t.Fatalf("stats after free: %+v", s)
	}
	r3, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatalf("free list not reused: got %v want %v", r3, r1)
	}
	for _, v := range a.Items(r3) {
		if v != 0 {
			t.Fatal("reused slot items not zeroed")
		}
	}
	for _, v := range a.Words(r3) {
		if v != 0 {
			t.Fatal("reused slot words not zeroed")
		}
	}
}

// TestChunkStability pins the property the farm's attach/detach views rely
// on: storage handed out for a slot stays at the same address while the
// arena grows by further chunks.
func TestChunkStability(t *testing.T) {
	a, err := New([]Class{{ItemCap: 2, WordCap: 1}}, Config{SlotsPerChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	items := a.Items(first)
	items[0] = 42
	for i := 0; i < 100; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	if &items[0] != &a.Items(first)[0] || a.Items(first)[0] != 42 {
		t.Fatal("slot storage moved while arena grew")
	}
}

func TestMaxBytes(t *testing.T) {
	// One chunk of 2 slots * (8 items + 2 words) * 8 bytes = 160 bytes.
	a, err := New([]Class{{ItemCap: 8, WordCap: 2}}, Config{SlotsPerChunk: 2, MaxBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("third slot needs a 160-byte chunk over the 200-byte bound: got %v", err)
	}
	// Freeing makes room without growing.
	st := a.Stats()
	r, err := a.Alloc(0)
	if err == nil {
		t.Fatalf("unexpected headroom: %+v -> %v", st, r)
	}
}

func TestBadClass(t *testing.T) {
	if _, err := New(nil, Config{}); !errors.Is(err, ErrBadClass) {
		t.Fatalf("empty class list: %v", err)
	}
	if _, err := New([]Class{{ItemCap: 1, WordCap: 0}}, Config{}); !errors.Is(err, ErrBadClass) {
		t.Fatalf("zero word cap: %v", err)
	}
	a, err := New([]Class{{ItemCap: 1, WordCap: 1}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(7); !errors.Is(err, ErrBadClass) {
		t.Fatalf("out-of-range class: %v", err)
	}
}

func TestSliceCapsPinned(t *testing.T) {
	a, err := New([]Class{{ItemCap: 3, WordCap: 2}}, Config{SlotsPerChunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := a.Alloc(0)
	r2, _ := a.Alloc(0)
	it := a.Items(r1)
	if cap(it) != 3 || len(it) != 3 {
		t.Fatalf("items len/cap = %d/%d, want 3/3", len(it), cap(it))
	}
	// Appending past the pinned capacity must reallocate, never bleed into
	// the neighbor slot.
	grown := append(it, 7, 8)
	_ = grown
	if a.Items(r2)[0] != 0 {
		t.Fatal("append overflow corrupted the neighboring slot")
	}
	if w := a.Words(r2); len(w) != 2 || cap(w) != 2 {
		t.Fatalf("words len/cap = %d/%d, want 2/2", len(w), cap(w))
	}
}

func TestMultiClass(t *testing.T) {
	a, err := New([]Class{{ItemCap: 2, WordCap: 1}, {ItemCap: 16, WordCap: 3}}, Config{SlotsPerChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := a.Alloc(0)
	r1, _ := a.Alloc(1)
	if r0.Class() != 0 || r1.Class() != 1 {
		t.Fatal("ClassOf mismatch")
	}
	if a.ItemCap(0) != 2 || a.ItemCap(1) != 16 || a.Classes() != 2 {
		t.Fatal("class geometry misreported")
	}
	if len(a.Items(r1)) != 16 || len(a.Words(r1)) != 3 {
		t.Fatal("class-1 slot has wrong geometry")
	}
}
