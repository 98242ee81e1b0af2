// Package farm manages on the order of a million concurrent tenant
// sketches in one process — the production shape of the paper's robust
// samplers, where robustness is needed per user or per key rather than for
// one huge stream (the "millions of users" deployment of Section 1.2's
// applications).
//
// The naive shape — one sketch.Sketch per tenant — costs a heap object
// graph per tenant: item slice, delta buffers, RNG, encoder scratch. A
// million tenants means millions of GC-traced pointers and cache-hostile
// layout. The farm instead keeps every tenant's mutable state flat and
// pointer-free in slab arenas (internal/slab): a slot of fixed-capacity
// int64 sample items plus a few uint64 counter words (RNG state included).
// One scratch sampler per shard attaches to a slot, runs the unchanged
// Algorithm R / Bernoulli batch admission (internal/sampler AttachFlat /
// DetachFlat), and detaches — byte-identical behavior to a standalone
// sampler, at a handful of large allocations per process.
//
// Tenant lifecycle is hot ⇄ cold ⇄ spilled. Hot tenants own a slab slot.
// Cold tenants are their versioned snapshot payload (the PR-4 codecs):
// one heap buffer of a few hundred bytes, or a checksummed record in a
// per-shard append-only spill file when WithSpillDir is set. Offers
// hydrate lazily; a CLOCK second-chance sweep with optional TTL demotes
// idle tenants and enforces WithMaxHotTenants. Dropped tenants leave a
// tombstone and fail with ErrTenantEvicted.
//
// Ingest is batch-first: Producer.OfferBatch routes (tenant, element)
// pairs to shards with the same 8-wide group-hash lane as the sharded
// serving engine (internal/runtime.RouteHashBatch) and applies run-length
// grouped batches per tenant. It is zero-allocation in steady state both
// with every touched tenant hot and under churn: eviction encodes through
// per-shard scratch into a recycled cold buffer, hydration decodes into a
// reused item buffer and hands the cold buffer back, and the spill tier
// reuses one record buffer. BENCH.md pins both paths.
//
// Cross-tenant aggregates ride the mergeability the repo already proves:
// GlobalSample folds per-tenant samples through one reusable
// sampler.Merger (the hypergeometric [CTW16] fan-in), so a query
// allocates a constant number of times however many tenants it selects;
// GlobalQuantile/GlobalTopK read the merged sample, and GlobalVerdict
// (WithVerdicts) merges per-shard discrepancy accumulators against the
// union of all tenant samples.
//
// Farms are safe for concurrent use: state is sharded behind per-shard
// locks, so offers to different shards proceed in parallel and eviction
// never races a live query on the same tenant.
package farm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/slab"
	"robustsample/sketch"
)

// TenantID identifies one tenant sketch within a farm.
type TenantID uint64

// Sentinel errors. Wrapped errors carry context; test with errors.Is.
var (
	// ErrBadConfig reports an invalid constructor or option argument.
	ErrBadConfig = errors.New("farm: invalid configuration")
	// ErrUnknownTenant reports a query for a tenant that was never offered
	// to the farm.
	ErrUnknownTenant = errors.New("farm: unknown tenant")
	// ErrTenantEvicted reports an operation on a tenant removed by Drop;
	// dropped tenants leave a tombstone and never silently restart.
	ErrTenantEvicted = errors.New("farm: tenant dropped")
	// ErrFarmFull reports that hydrating or growing a tenant would exceed
	// the WithMaxBytes slab bound.
	ErrFarmFull = errors.New("farm: memory bound exceeded")
	// ErrFarmClosed reports an operation on a closed farm.
	ErrFarmClosed = errors.New("farm: farm is closed")
	// ErrBadBatch reports a keyed batch whose id and element slices have
	// different lengths.
	ErrBadBatch = errors.New("farm: ids and elements length mismatch")
	// ErrNoSample reports a global query over an empty selection.
	ErrNoSample = errors.New("farm: no selected sample")
	// ErrNoVerdicts reports GlobalVerdict on a farm built without
	// WithVerdicts.
	ErrNoVerdicts = errors.New("farm: verdicts not configured")
	// ErrBadQuery reports an out-of-range query parameter.
	ErrBadQuery = errors.New("farm: invalid query parameter")
	// ErrBadSnapshot reports a corrupt, truncated or mismatched snapshot;
	// it is the sketch package's sentinel, so frames decoded by either
	// package match the same errors.Is test.
	ErrBadSnapshot = sketch.ErrBadSnapshot
)

// System selects the range family GlobalVerdict measures discrepancy
// over, mirroring the sharded engine's enum.
type System int

// The supported set systems (see internal/setsystem).
const (
	// Prefixes is {[1, b]}: VC dimension 1, the system of Theorem 1.3.
	Prefixes System = iota
	// Intervals is {[a, b]}: VC dimension 2.
	Intervals
	// Singletons is {{x}}: additive heavy-hitter error.
	Singletons
	// Suffixes is {[a, N]}: VC dimension 1.
	Suffixes
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case Prefixes:
		return "prefixes"
	case Intervals:
		return "intervals"
	case Singletons:
		return "singletons"
	case Suffixes:
		return "suffixes"
	}
	return "unknown"
}

func (s System) build(n int64) (setsystem.SetSystem, error) {
	switch s {
	case Prefixes:
		return setsystem.NewPrefixes(n), nil
	case Intervals:
		return setsystem.NewIntervals(n), nil
	case Singletons:
		return setsystem.NewSingletons(n), nil
	case Suffixes:
		return setsystem.NewSuffixes(n), nil
	}
	return nil, fmt.Errorf("%w: unknown set system %d", ErrBadConfig, int(s))
}

// options collects the optional configuration.
type options struct {
	seed     uint64
	shards   int
	maxHot   int
	maxBytes int64
	ttl      uint64
	spillDir string
	verdicts bool
	system   System
}

// Option configures a farm.
type Option func(*options) error

// WithSeed sets the deterministic root seed (default sketch.DefaultSeed).
// Tenant t draws from RNG stream t of this seed, so per-tenant randomness
// is independent and reproducible regardless of interleaving.
func WithSeed(seed uint64) Option {
	return func(o *options) error { o.seed = seed; return nil }
}

// WithShards sets the internal shard count (default 8). More shards mean
// more offer parallelism and finer-grained locks.
func WithShards(n int) Option {
	return func(o *options) error {
		if n < 1 || n > 1<<14 {
			return fmt.Errorf("%w: shards %d", ErrBadConfig, n)
		}
		o.shards = n
		return nil
	}
}

// WithMaxHotTenants bounds the number of tenants holding slab slots at
// once (approximately: the bound is enforced per shard). Excess tenants
// are demoted coldest-first by the CLOCK sweep; offers hydrate them back
// on demand. 0 (the default) means unbounded.
func WithMaxHotTenants(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("%w: max hot %d", ErrBadConfig, n)
		}
		o.maxHot = n
		return nil
	}
}

// WithMaxBytes bounds the slab storage of the farm in bytes (split evenly
// across shards). Allocations beyond the bound fail with ErrFarmFull.
// 0 (the default) means unbounded.
func WithMaxBytes(n int64) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("%w: max bytes %d", ErrBadConfig, n)
		}
		o.maxBytes = n
		return nil
	}
}

// WithTTL makes tenants idle for more than n offered batches (measured on
// the tenant's shard's logical op clock) eligible for demotion by EvictIdle
// and the CLOCK sweep. 0 (the default) disables TTL-based demotion.
func WithTTL(n uint64) Option {
	return func(o *options) error { o.ttl = n; return nil }
}

// WithSpillDir redirects evicted tenants' snapshot payloads to checksummed
// per-shard segment files in dir instead of holding the bytes in memory —
// the tier that makes tenants/GB independent of the cold population.
func WithSpillDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("%w: empty spill dir", ErrBadConfig)
		}
		o.spillDir = dir
		return nil
	}
}

// WithVerdicts maintains a per-shard discrepancy accumulator over the
// union stream so GlobalVerdict can certify the farm-wide sample against
// the chosen range family. It costs accumulator work on every offer.
func WithVerdicts(sys System) Option {
	return func(o *options) error {
		if sys < Prefixes || sys > Suffixes {
			return fmt.Errorf("%w: unknown set system %d", ErrBadConfig, int(sys))
		}
		o.verdicts = true
		o.system = sys
		return nil
	}
}

// Sampler kinds.
const (
	kindReservoir = iota
	kindBernoulli
)

// Tenant lifecycle states. The zero value is deliberately not a valid
// state: every entry gets its state set explicitly on creation.
const (
	stateHot = iota + 1
	stateCold
	stateSpilled
	stateTombstone
)

// Flat slot word layout: words 0-1 hold the tenant's PCG RNG state, the
// rest the sampler's flat counters (internal/sampler flat.go).
const rngWords = 2

// bernoulliBaseCap is the item capacity of the smallest Bernoulli size
// class; classes double up to bernoulliMaxCap.
const (
	bernoulliBaseCap = 8
	bernoulliMaxCap  = 1 << 26
)

// core is the shared, shard-independent configuration.
type core struct {
	kind     int
	k        int
	p        float64
	seed     uint64
	ttl      uint64
	maxHotSh int // per-shard hot bound; 0 = unbounded
	uSize    int64
	sys      setsystem.SetSystem // nil unless verdicts
	system   System
	classes  []slab.Class
	coldCap  []int // per size class: the largest payload a tenant of it encodes to
}

// classFor returns the slot size class for a sample of length n.
func (c *core) classFor(n int) (int, error) {
	if c.kind == kindReservoir {
		return 0, nil
	}
	cap := bernoulliBaseCap
	for i := range c.classes {
		if n <= cap {
			return i, nil
		}
		cap *= 2
	}
	return 0, fmt.Errorf("%w: sample of %d items exceeds the largest size class", ErrFarmFull, n)
}

// entry is one tenant's lifecycle record. Hot state lives in the slab slot
// behind ref; cold state is the snapshot payload (in memory or spilled).
type entry struct {
	id       TenantID
	ref      slab.Ref
	cold     []byte
	spillOff int64
	spillLen int32
	hotPos   int32
	lastOp   uint64
	state    uint8
	refBit   bool
}

// farmShard is one lock domain: an arena, the tenant index, the CLOCK
// list, scratch samplers and RNG, and the optional spill file and
// verdict accumulator. All fields are guarded by mu.
type farmShard struct {
	mu sync.Mutex
	c  *core

	arena   *slab.Arena
	index   map[TenantID]int32
	entries []entry
	hot     []int32
	hand    int
	ops     uint64

	r *rng.RNG // per-tenant RNG states are swapped through this scratch
	// res and ber attach to slab slots to ingest and to encode payloads;
	// decRes and decBer decode payloads into items they own and keep.
	res    sampler.Reservoir[int64]
	ber    sampler.Bernoulli[int64]
	decRes sampler.Reservoir[int64]
	decBer sampler.Bernoulli[int64]

	pts   []int64  // encoded-point scratch for single-tenant batches
	enc   []byte   // payload encode scratch
	spare [][]byte // per size class: a recycled cold buffer, or nil

	spill *spillFile
	acc   *setsystem.Accumulator

	offered    uint64
	hydrations uint64
	evictions  uint64
	dropped    int
	histNs     [histBuckets]uint64 // log2-bucketed hydration stall histogram
}

// Farm is a multi-tenant sketch farm over element type T. All methods are
// safe for concurrent use.
type Farm[T any] struct {
	u      sketch.Universe[T]
	c      *core
	shards []*farmShard
	closed atomic.Bool
}

// NewReservoirFarm builds a farm of per-tenant reservoir samplers
// (Algorithm R) of capacity k over universe u.
func NewReservoirFarm[T any](u sketch.Universe[T], k int, opts ...Option) (*Farm[T], error) {
	if u == nil {
		return nil, fmt.Errorf("%w: nil universe", ErrBadConfig)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: reservoir capacity %d", ErrBadConfig, k)
	}
	return build(u, kindReservoir, k, 0, opts)
}

// NewBernoulliFarm builds a farm of per-tenant Bernoulli(p) samplers over
// universe u.
func NewBernoulliFarm[T any](u sketch.Universe[T], p float64, opts ...Option) (*Farm[T], error) {
	if u == nil {
		return nil, fmt.Errorf("%w: nil universe", ErrBadConfig)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("%w: Bernoulli rate %v", ErrBadConfig, p)
	}
	return build(u, kindBernoulli, 0, p, opts)
}

func build[T any](u sketch.Universe[T], kind, k int, p float64, opts []Option) (*Farm[T], error) {
	o := options{seed: sketch.DefaultSeed, shards: 8}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	c := &core{kind: kind, k: k, p: p, seed: o.seed, ttl: o.ttl, uSize: u.Size(), system: o.system}
	if o.maxHot > 0 {
		c.maxHotSh = o.maxHot / o.shards
		if c.maxHotSh < 1 {
			c.maxHotSh = 1
		}
	}
	if kind == kindReservoir {
		c.classes = []slab.Class{{ItemCap: k, WordCap: rngWords + sampler.ReservoirFlatWords}}
	} else {
		for capI := bernoulliBaseCap; capI <= bernoulliMaxCap; capI *= 2 {
			c.classes = append(c.classes, slab.Class{ItemCap: capI, WordCap: rngWords + sampler.BernoulliFlatWords})
		}
	}
	c.coldCap = payloadCaps(c)
	if o.verdicts {
		sys, err := o.system.build(c.uSize)
		if err != nil {
			return nil, err
		}
		c.sys = sys
	}
	f := &Farm[T]{u: u, c: c, shards: make([]*farmShard, o.shards)}
	perShard := int64(0)
	if o.maxBytes > 0 {
		perShard = o.maxBytes / int64(o.shards)
		if perShard < 1 {
			perShard = 1
		}
	}
	for s := range f.shards {
		arena, err := slab.New(c.classes, slab.Config{MaxBytes: perShard, SlotsPerChunk: 1024})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		sh := &farmShard{
			c:      c,
			arena:  arena,
			index:  make(map[TenantID]int32),
			r:      rng.New(0),
			res:    sampler.Reservoir[int64]{K: k},
			ber:    sampler.Bernoulli[int64]{P: p},
			decRes: sampler.Reservoir[int64]{K: k},
			decBer: sampler.Bernoulli[int64]{P: p},
			spare:  make([][]byte, len(c.classes)),
		}
		if c.sys != nil {
			sh.acc = c.sys.NewAccumulator()
		}
		if o.spillDir != "" {
			sp, err := openSpill(o.spillDir, s)
			if err != nil {
				return nil, fmt.Errorf("%w: spill: %v", ErrBadConfig, err)
			}
			sh.spill = sp
		}
		f.shards[s] = sh
	}
	return f, nil
}

// shardOf routes a tenant to its shard — the same multiplicative hash as
// runtime.RouteHashBatch, so keyed batch routing and point lookups agree.
func (f *Farm[T]) shardOf(id TenantID) int {
	return int(rng.Mix64(uint64(id)) % uint64(len(f.shards)))
}

// Offer processes one element for one tenant, reporting whether it entered
// the tenant's sample.
func (f *Farm[T]) Offer(id TenantID, x T) (bool, error) {
	if f.closed.Load() {
		return false, ErrFarmClosed
	}
	p, err := f.u.Encode(x)
	if err != nil {
		return false, err
	}
	sh := f.shards[f.shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, err := sh.lookupOrCreate(id)
	if err != nil {
		return false, err
	}
	sh.pts = append(sh.pts[:0], p)
	adm, err := sh.applyRun(idx, sh.pts)
	return adm > 0, err
}

// OfferBatch processes a run of consecutive elements for one tenant,
// returning how many were admitted. If any element is outside the universe
// the batch is rejected atomically. Results never depend on how a tenant's
// stream is sliced into batches.
//
//robust:hotpath
func (f *Farm[T]) OfferBatch(id TenantID, xs []T) (int, error) {
	if f.closed.Load() {
		return 0, ErrFarmClosed
	}
	sh := f.shards[f.shardOf(id)]
	sh.mu.Lock()
	sh.pts = sh.pts[:0]
	for _, x := range xs {
		p, err := f.u.Encode(x)
		if err != nil {
			sh.mu.Unlock()
			return 0, err
		}
		sh.pts = append(sh.pts, p)
	}
	idx, err := sh.lookupOrCreate(id)
	if err != nil {
		sh.mu.Unlock()
		return 0, err
	}
	adm, err := sh.applyRun(idx, sh.pts)
	sh.mu.Unlock()
	return adm, err
}

// lookupOrCreate resolves a tenant to its entry index, creating a fresh
// hot tenant on first contact. Dropped tenants fail with ErrTenantEvicted.
// Callers hold sh.mu.
func (sh *farmShard) lookupOrCreate(id TenantID) (int32, error) {
	if idx, ok := sh.index[id]; ok {
		if sh.entries[idx].state == stateTombstone {
			return 0, ErrTenantEvicted
		}
		return idx, nil
	}
	sh.makeRoom(-1)
	class, _ := sh.c.classFor(0)
	ref, err := sh.arena.Alloc(class)
	if err != nil {
		return 0, farmFull(err)
	}
	words := sh.arena.Words(ref)
	hi, lo := rng.NewWithStream(sh.c.seed, uint64(id)).State()
	words[0], words[1] = hi, lo
	idx := int32(len(sh.entries))
	sh.entries = append(sh.entries, entry{id: id, ref: ref, hotPos: -1, state: stateHot})
	sh.index[id] = idx
	sh.hotPush(idx)
	return idx, nil
}

// makeRoom demotes CLOCK victims until the per-shard hot bound has a free
// slot, never touching the protected entry. Callers hold sh.mu.
func (sh *farmShard) makeRoom(protect int32) {
	if sh.c.maxHotSh <= 0 {
		return
	}
	for len(sh.hot) >= sh.c.maxHotSh {
		if !sh.evictOne(protect) {
			return
		}
	}
}

// applyRun offers a run of encoded points to one tenant: hydrate if needed,
// attach the scratch sampler to the tenant's slot, run the unchanged batch
// admission, detach, and save the RNG state back into the slot words.
// Callers hold sh.mu.
func (sh *farmShard) applyRun(idx int32, pts []int64) (int, error) {
	e := &sh.entries[idx]
	if e.state == stateTombstone {
		return 0, ErrTenantEvicted
	}
	if e.state != stateHot {
		sh.makeRoom(idx)
		if err := sh.hydrate(idx); err != nil {
			return 0, err
		}
		e = &sh.entries[idx]
	}
	sh.ops++
	e.lastOp = sh.ops
	e.refBit = true
	items := sh.arena.Items(e.ref)
	words := sh.arena.Words(e.ref)
	sh.r.SetState(words[0], words[1])
	var adm int
	if sh.c.kind == kindReservoir {
		sh.res.AttachFlat(items, words[rngWords:])
		adm = sh.res.OfferBatch(pts, sh.r)
		sh.res.DetachFlat(words[rngWords:])
		hi, lo := sh.r.State()
		words[0], words[1] = hi, lo
	} else {
		sh.ber.AttachFlat(items, words[rngWords:])
		adm = sh.ber.OfferBatch(pts, sh.r)
		out := sh.ber.DetachFlat(words[rngWords:])
		hi, lo := sh.r.State()
		words[0], words[1] = hi, lo
		// migrate must run after the RNG words are saved: it serializes or
		// copies the full slot words and frees the old slot, so no write to
		// words may follow it.
		if len(out) > len(items) {
			if err := sh.migrate(idx, out, words); err != nil {
				return adm, err
			}
		}
	}
	if sh.acc != nil {
		sh.acc.AddStreamBatch(pts)
	}
	sh.offered += uint64(len(pts))
	return adm, nil
}

// migrate moves a Bernoulli sample that outgrew its slot to the next size
// class, carrying the already-updated counter words. If the arena cannot
// grow, the tenant is demoted to cold instead (the sample is already
// complete in out), keeping the farm serving. Callers hold sh.mu.
func (sh *farmShard) migrate(idx int32, out []int64, words []uint64) error {
	e := &sh.entries[idx]
	class, err := sh.c.classFor(len(out))
	if err != nil {
		return err
	}
	ref, allocErr := sh.arena.Alloc(class)
	if allocErr != nil {
		// Demote to cold from the detached state: serialize payload from
		// out + words, then drop the old slot.
		sh.enc = sh.appendPayloadRaw(sh.enc[:0], out, words)
		sh.hotRemove(idx)
		sh.arena.Free(e.ref)
		e.ref = slab.NilRef
		sh.store(e, sh.enc, class)
		sh.evictions++
		return nil
	}
	nw := sh.arena.Words(ref)
	copy(nw, words)
	copy(sh.arena.Items(ref), out)
	sh.arena.Free(e.ref)
	e.ref = ref
	return nil
}

// hotPush appends an entry to the CLOCK list. Callers hold sh.mu.
func (sh *farmShard) hotPush(idx int32) {
	sh.entries[idx].hotPos = int32(len(sh.hot))
	sh.hot = append(sh.hot, idx)
}

// hotRemove swap-removes an entry from the CLOCK list. Callers hold sh.mu.
func (sh *farmShard) hotRemove(idx int32) {
	pos := sh.entries[idx].hotPos
	last := int32(len(sh.hot) - 1)
	moved := sh.hot[last]
	sh.hot[pos] = moved
	sh.entries[moved].hotPos = pos
	sh.hot = sh.hot[:last]
	sh.entries[idx].hotPos = -1
	if sh.hand > int(last) {
		sh.hand = 0
	}
}

// evictOne runs the CLOCK hand until it demotes one unprotected victim:
// entries with the reference bit set get a second chance (the bit clears),
// TTL-expired entries are demoted regardless. Returns false when nothing
// can be demoted. Callers hold sh.mu.
func (sh *farmShard) evictOne(protect int32) bool {
	if len(sh.hot) == 0 || (len(sh.hot) == 1 && sh.hot[0] == protect) {
		return false
	}
	for sweep := 0; sweep < 2*len(sh.hot)+2; sweep++ {
		if sh.hand >= len(sh.hot) {
			sh.hand = 0
		}
		idx := sh.hot[sh.hand]
		e := &sh.entries[idx]
		expired := sh.c.ttl > 0 && sh.ops-e.lastOp > sh.c.ttl
		if idx != protect && (!e.refBit || expired) {
			sh.evict(idx)
			return true
		}
		e.refBit = false
		sh.hand++
	}
	return false
}

// evict demotes a hot entry to cold or spilled, encoding through the
// shard's scratch. Callers hold sh.mu.
//
//robust:hotpath
func (sh *farmShard) evict(idx int32) {
	e := &sh.entries[idx]
	sh.enc = sh.appendTenantPayload(sh.enc[:0], e)
	class := e.ref.Class()
	sh.hotRemove(idx)
	sh.arena.Free(e.ref)
	e.ref = slab.NilRef
	sh.store(e, sh.enc, class)
	sh.evictions++
}

// store parks a serialized tenant payload of the given size class as
// spilled (preferred when a spill file exists) or, when there is no spill
// file or its write fails, as cold bytes copied into a cold buffer: the
// class's spare, else a new buffer that fits the class's largest payload,
// so every buffer fits any payload of its class when recycled. payload
// may be the shard's scratch. Callers hold sh.mu.
func (sh *farmShard) store(e *entry, payload []byte, class int) {
	if e.state == stateSpilled {
		sh.spill.retire(e.spillLen)
		e.spillLen = 0
	}
	if sh.spill != nil {
		off, n, err := sh.spill.write(payload)
		if err == nil {
			e.spillOff, e.spillLen = off, n
			e.cold = nil
			e.state = stateSpilled
			return
		}
	}
	buf := sh.spare[class]
	sh.spare[class] = nil
	if buf == nil {
		buf = make([]byte, 0, sh.c.coldCap[class])
	}
	e.cold = append(buf, payload...)
	e.state = stateCold
}

// hydrate promotes a cold or spilled tenant back into a slab slot,
// validating the payload (checksum, codec consistency, universe range) on
// the way in, and keeps the tenant's cold buffer as its class's spare.
// Callers hold sh.mu.
//
//robust:hotpath
func (sh *farmShard) hydrate(idx int32) error {
	start := time.Now()
	e := &sh.entries[idx]
	payload := e.cold
	if e.state == stateSpilled {
		var err error
		payload, err = sh.spill.read(e.spillOff, e.spillLen)
		if err != nil {
			return err
		}
	}
	hi, lo, n, err := sh.loadTenantPayload(payload)
	if err != nil {
		return err
	}
	class, err := sh.c.classFor(n)
	if err != nil {
		return err
	}
	ref, err := sh.arena.Alloc(class)
	if err != nil {
		return farmFull(err)
	}
	words := sh.arena.Words(ref)
	words[0], words[1] = hi, lo
	var out []int64
	if sh.c.kind == kindReservoir {
		out = sh.decRes.SaveFlat(words[rngWords:])
	} else {
		out = sh.decBer.SaveFlat(words[rngWords:])
	}
	copy(sh.arena.Items(ref), out)
	if e.state == stateSpilled {
		sh.spill.retire(e.spillLen)
	}
	if cap(e.cold) >= sh.c.coldCap[class] {
		sh.spare[class] = e.cold[:0]
	}
	e.ref = ref
	e.cold = nil
	e.spillLen = 0
	e.state = stateHot
	sh.hotPush(idx)
	sh.hydrations++
	sh.histNs[histBucket(time.Since(start).Nanoseconds())]++
	return nil
}

// farmFull wraps a slab allocation failure as ErrFarmFull, out of line so
// the hot paths that allocate slots do not format errors inline.
func farmFull(err error) error {
	return fmt.Errorf("%w: %v", ErrFarmFull, err)
}

// histBuckets is the size of the log2 hydration-stall histogram (covers
// stalls up to ~9 minutes).
const histBuckets = 40

// histBucket maps a nanosecond duration to its log2 histogram bucket.
func histBucket(ns int64) int {
	if ns < 1 {
		return 0
	}
	b := 0
	for ns > 1 {
		ns >>= 1
		b++
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Evict demotes one tenant to cold/spilled storage immediately. It is a
// no-op for tenants that are already cold.
func (f *Farm[T]) Evict(id TenantID) error {
	if f.closed.Load() {
		return ErrFarmClosed
	}
	sh := f.shards[f.shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.index[id]
	if !ok {
		return ErrUnknownTenant
	}
	switch sh.entries[idx].state {
	case stateTombstone:
		return ErrTenantEvicted
	case stateHot:
		sh.evict(idx)
	}
	return nil
}

// EvictIdle runs one CLOCK aging lap per shard, demoting TTL-expired
// tenants (WithTTL) and clearing second-chance bits, and returns the
// number of tenants demoted. It is the background-evictor entry point.
func (f *Farm[T]) EvictIdle() int {
	if f.closed.Load() {
		return 0
	}
	demoted := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		for i := len(sh.hot) - 1; i >= 0; i-- {
			idx := sh.hot[i]
			e := &sh.entries[idx]
			if sh.c.ttl > 0 && sh.ops-e.lastOp > sh.c.ttl {
				sh.evict(idx)
				demoted++
				continue
			}
			e.refBit = false
		}
		sh.mu.Unlock()
	}
	return demoted
}

// Drop removes a tenant permanently: its state is discarded and a
// tombstone keeps later offers and queries failing with ErrTenantEvicted
// (a dropped tenant must not silently restart as a fresh sample).
func (f *Farm[T]) Drop(id TenantID) error {
	if f.closed.Load() {
		return ErrFarmClosed
	}
	sh := f.shards[f.shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.index[id]
	if !ok {
		return ErrUnknownTenant
	}
	e := &sh.entries[idx]
	switch e.state {
	case stateTombstone:
		return ErrTenantEvicted
	case stateHot:
		sh.hotRemove(idx)
		sh.arena.Free(e.ref)
		e.ref = slab.NilRef
	case stateSpilled:
		sh.spill.retire(e.spillLen)
	}
	e.cold = nil
	e.spillLen = 0
	e.state = stateTombstone
	sh.dropped++
	return nil
}

// Tenants returns the number of live (non-dropped) tenants.
func (f *Farm[T]) Tenants() int {
	n := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		n += len(sh.entries) - sh.dropped
		sh.mu.Unlock()
	}
	return n
}

// Close releases the farm's spill files and fails all further operations
// with ErrFarmClosed. It is idempotent.
func (f *Farm[T]) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	var first error
	for _, sh := range f.shards {
		sh.mu.Lock()
		if sh.spill != nil {
			if err := sh.spill.close(); err != nil && first == nil {
				first = err
			}
			sh.spill = nil
		}
		sh.mu.Unlock()
	}
	if first != nil {
		return fmt.Errorf("%w: closing spill: %v", ErrFarmClosed, first)
	}
	return nil
}

// Stats is a point-in-time operational snapshot of a farm.
type Stats struct {
	// Tenants counts live tenants; Hot/Cold/Spilled partition them by
	// lifecycle state. Dropped counts tombstones.
	Tenants, Hot, Cold, Spilled, Dropped int
	// SlabBytes is the flat slot storage reserved across all shards.
	SlabBytes int64
	// SpillBytes is the total size of the spill segment files;
	// SpillDeadBytes the fraction owned by retired records.
	SpillBytes, SpillDeadBytes int64
	// Offered counts elements offered, Hydrations cold-to-hot promotions,
	// Evictions hot-to-cold demotions.
	Offered, Hydrations, Evictions uint64
	// HydrateP99 is the 99th-percentile hydration stall (upper bucket
	// bound of a log2 histogram).
	HydrateP99 time.Duration
}

// Stats aggregates operational counters across shards.
func (f *Farm[T]) Stats() Stats {
	var s Stats
	var hist [histBuckets]uint64
	for _, sh := range f.shards {
		sh.mu.Lock()
		s.Tenants += len(sh.entries) - sh.dropped
		s.Hot += len(sh.hot)
		for i := range sh.entries {
			switch sh.entries[i].state {
			case stateCold:
				s.Cold++
			case stateSpilled:
				s.Spilled++
			}
		}
		s.Dropped += sh.dropped
		s.SlabBytes += sh.arena.Stats().Bytes
		if sh.spill != nil {
			s.SpillBytes += sh.spill.size
			s.SpillDeadBytes += sh.spill.dead
		}
		s.Offered += sh.offered
		s.Hydrations += sh.hydrations
		s.Evictions += sh.evictions
		for b, n := range sh.histNs {
			hist[b] += n
		}
		sh.mu.Unlock()
	}
	s.HydrateP99 = histP99(hist[:])
	return s
}

// histP99 returns the upper bound of the smallest log2 bucket covering the
// 99th percentile.
func histP99(hist []uint64) time.Duration {
	total := uint64(0)
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := total - total/100
	cum := uint64(0)
	for b, n := range hist {
		cum += n
		if cum >= target {
			return time.Duration(int64(1) << uint(b))
		}
	}
	return time.Duration(int64(1) << uint(len(hist)-1))
}
