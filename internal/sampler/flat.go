package sampler

// Flat-state views: a sampler's mutable state — sample items plus a few
// scalar counters — can live in caller-owned, pointer-free storage (a slab
// slot) instead of the sampler's own heap slices. AttachFlat points one
// reusable "scratch" sampler at that storage and DetachFlat writes the
// counters back, so a process can serve a million tenant sketches with one
// sampler object per shard: the algorithms run unchanged on the attached
// slices, which keeps every determinism pin (per-element and batch
// randomness consumption, chunking invariance, snapshot codecs)
// byte-identical to a standalone sampler.
//
// The counter words use a fixed layout per sampler type (documented at the
// *FlatWords constants). Only the counters the algorithms mutate are
// stored; configuration (K, P) stays on the scratch sampler, which every
// tenant of a farm shares.

// ReservoirFlatWords is the counter-word footprint of a flat Reservoir:
// word 0 rounds, word 1 admitted, word 2 sample length.
const ReservoirFlatWords = 3

// BernoulliFlatWords is the counter-word footprint of a flat Bernoulli:
// word 0 rounds, word 1 pending gap skip, word 2 skip-valid flag, word 3
// sample length.
const BernoulliFlatWords = 4

// AttachFlat binds v to caller-owned flat state: storage holds the sample
// items (its capacity must be at least v.K and it must not alias another
// live sampler's items) and words holds ReservoirFlatWords counters as
// written by a previous DetachFlat (all-zero words mean a fresh sampler).
// Until DetachFlat, the sampler reads and writes that storage in place.
func (v *Reservoir[T]) AttachFlat(storage []T, words []uint64) {
	v.items = storage[:int(words[2])]
	v.rounds = int(words[0])
	v.admitted = int(words[1])
	v.delta.clear()
}

// SaveFlat writes v's counters into words, in the layout AttachFlat reads,
// and returns v's item slice; v itself is unchanged. A sampler that owns
// its items (one that decodes snapshots into flat slots) uses it to keep
// its buffer across loads.
func (v *Reservoir[T]) SaveFlat(words []uint64) []T {
	words[0] = uint64(v.rounds)
	words[1] = uint64(v.admitted)
	words[2] = uint64(len(v.items))
	return v.items
}

// DetachFlat writes v's counters back into words and releases the attached
// storage, leaving v ready for the next AttachFlat. It returns the item
// slice as of detach: for a Reservoir this is always the attached storage
// (the sample never outgrows K).
func (v *Reservoir[T]) DetachFlat(words []uint64) []T {
	items := v.SaveFlat(words)
	v.items = nil
	v.rounds = 0
	v.admitted = 0
	v.delta.clear()
	return items
}

// AttachFlat binds b to caller-owned flat state; see Reservoir.AttachFlat.
// words holds BernoulliFlatWords counters.
func (b *Bernoulli[T]) AttachFlat(storage []T, words []uint64) {
	b.items = storage[:int(words[3])]
	b.rounds = int(words[0])
	b.skip = int64(words[1])
	b.hasSkip = words[2] != 0
	b.delta.clear()
}

// SaveFlat writes b's counters into words and returns b's item slice; see
// Reservoir.SaveFlat.
func (b *Bernoulli[T]) SaveFlat(words []uint64) []T {
	words[0] = uint64(b.rounds)
	words[1] = uint64(b.skip)
	if b.hasSkip {
		words[2] = 1
	} else {
		words[2] = 0
	}
	words[3] = uint64(len(b.items))
	return b.items
}

// DetachFlat writes b's counters back into words and returns the item
// slice as of detach. A Bernoulli sample grows without bound, so the
// returned slice may have outgrown the attached storage (append spilled to
// the heap); the caller detects this by comparing the returned length to
// the storage capacity and migrates the sample to a larger slot.
func (b *Bernoulli[T]) DetachFlat(words []uint64) []T {
	items := b.SaveFlat(words)
	b.items = nil
	b.rounds = 0
	b.skip = 0
	b.hasSkip = false
	b.delta.clear()
	return items
}
