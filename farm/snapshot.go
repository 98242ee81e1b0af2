package farm

import (
	"fmt"

	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/slab"
	"robustsample/internal/snapshot"
	"robustsample/sketch"
)

// Farm snapshot layout (frame kind sketch.FrameFarm):
//
//	frame header | codecVersion | universe | seed | kind | k | p |
//	verdicts flag + system | tenant count |
//	per tenant: id, live flag, payload bytes (live only) |
//	verdicts only: accumulator count, per-shard accumulator state
//
// A tenant payload — also the eviction/spill format and the body of
// single-tenant frames (sketch.FrameFarmTenant) — is the tenant's RNG state
// followed by its kind-prefixed sampler state (the PR-4 codecs):
//
//	rngHi | rngLo | sampler.AppendState
//
// Snapshots are checkpoints: Restore replaces the farm's entire tenant
// population. Restored tenants install as cold payloads (validated first),
// so restoring a million-tenant farm costs no slab churn — tenants hydrate
// lazily on their next offer.

// codecVersion versions the farm frame and tenant payload layout.
const codecVersion = 1

// payloadOf serializes a tenant's current state regardless of lifecycle
// tier. Callers hold sh.mu.
func (sh *farmShard) payloadOf(e *entry) ([]byte, error) {
	switch e.state {
	case stateHot:
		return sh.appendTenantPayload(nil, e), nil
	case stateCold:
		return append([]byte(nil), e.cold...), nil
	case stateSpilled:
		return sh.spill.read(e.spillOff, e.spillLen)
	}
	return nil, ErrTenantEvicted
}

// appendTenantPayload appends a hot tenant's payload. Callers hold sh.mu.
func (sh *farmShard) appendTenantPayload(buf []byte, e *entry) []byte {
	return sh.appendPayloadRaw(buf, sh.arena.Items(e.ref), sh.arena.Words(e.ref))
}

// appendPayloadRaw appends a payload from detached flat state: items holds
// the sample, words the slot counter words (RNG state included). The
// ingest scratch sampler, detached whenever a payload is encoded, briefly
// attaches to serialize through the shared sampler codecs, so the payload
// is byte-identical to a standalone sampler's state. Callers hold sh.mu.
func (sh *farmShard) appendPayloadRaw(buf []byte, items []int64, words []uint64) []byte {
	buf = snapshot.AppendUint64(buf, words[0])
	buf = snapshot.AppendUint64(buf, words[1])
	if sh.c.kind == kindReservoir {
		sh.res.AttachFlat(items, words[rngWords:])
		buf, _ = sampler.AppendState(buf, &sh.res)
		sh.res.DetachFlat(words[rngWords:])
	} else {
		sh.ber.AttachFlat(items, words[rngWords:])
		buf, _ = sampler.AppendState(buf, &sh.ber)
		sh.ber.DetachFlat(words[rngWords:])
	}
	return buf
}

// payloadCaps returns, per size class, the length of the largest payload
// a tenant of that class encodes to. It encodes an empty and a one-item
// tenant through the codec instead of restating the layout: items encode
// at a fixed width, so a payload's length is affine in its item count.
func payloadCaps(c *core) []int {
	sh := &farmShard{c: c, res: sampler.Reservoir[int64]{K: c.k}, ber: sampler.Bernoulli[int64]{P: c.p}}
	words := make([]uint64, c.classes[0].WordCap)
	empty := len(sh.appendPayloadRaw(nil, nil, words))
	one := []int64{1}
	if c.kind == kindReservoir {
		sh.res.SetMergedState(one, 1, 1)
		sh.res.SaveFlat(words[rngWords:])
	} else {
		sh.ber.SetMergedState(one, 1)
		sh.ber.SaveFlat(words[rngWords:])
	}
	item := len(sh.appendPayloadRaw(nil, one, words)) - empty
	caps := make([]int, len(c.classes))
	for i, cl := range c.classes {
		caps[i] = empty + cl.ItemCap*item
	}
	return caps
}

// loadTenantPayload decodes and fully validates a tenant payload into the
// shard's decode scratch sampler: codec consistency (via the sampler
// codecs), configuration match, no trailing bytes, and every sample point
// inside the universe. On success the scratch holds the decoded state and
// the tenant's RNG words and sample length are returned. Callers hold
// sh.mu.
func (sh *farmShard) loadTenantPayload(payload []byte) (hi, lo uint64, n int, err error) {
	r := snapshot.NewReader(payload)
	hi = r.Uint64()
	lo = r.Uint64()
	if rerr := r.Err(); rerr != nil {
		return 0, 0, 0, fmt.Errorf("%w: tenant payload: %v", ErrBadSnapshot, rerr)
	}
	var view []int64
	if sh.c.kind == kindReservoir {
		if lerr := sampler.LoadState(r, &sh.decRes); lerr != nil {
			return 0, 0, 0, fmt.Errorf("%w: tenant payload: %v", ErrBadSnapshot, lerr)
		}
		if sh.decRes.K != sh.c.k {
			k := sh.decRes.K
			sh.decRes.K = sh.c.k
			return 0, 0, 0, fmt.Errorf("%w: payload capacity %d, farm capacity %d", ErrBadSnapshot, k, sh.c.k)
		}
		view = sh.decRes.View()
	} else {
		if lerr := sampler.LoadState(r, &sh.decBer); lerr != nil {
			return 0, 0, 0, fmt.Errorf("%w: tenant payload: %v", ErrBadSnapshot, lerr)
		}
		if sh.decBer.P != sh.c.p {
			p := sh.decBer.P
			sh.decBer.P = sh.c.p
			return 0, 0, 0, fmt.Errorf("%w: payload rate %v, farm rate %v", ErrBadSnapshot, p, sh.c.p)
		}
		view = sh.decBer.View()
	}
	if r.Len() != 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes after tenant payload", ErrBadSnapshot, r.Len())
	}
	for _, pt := range view {
		if pt < 1 || pt > sh.c.uSize {
			return 0, 0, 0, fmt.Errorf("%w: sample point %d outside universe [1, %d]", ErrBadSnapshot, pt, sh.c.uSize)
		}
	}
	return hi, lo, len(view), nil
}

// installCold installs a validated payload as a cold tenant, replacing any
// existing state for the id (tombstones included — an explicit restore
// revives a dropped tenant). Callers hold sh.mu.
func (sh *farmShard) installCold(id TenantID, payload []byte) {
	idx, ok := sh.index[id]
	if !ok {
		idx = int32(len(sh.entries))
		sh.entries = append(sh.entries, entry{id: id, hotPos: -1, state: stateCold})
		sh.index[id] = idx
	} else {
		e := &sh.entries[idx]
		switch e.state {
		case stateHot:
			sh.hotRemove(idx)
			sh.arena.Free(e.ref)
		case stateSpilled:
			sh.spill.retire(e.spillLen)
		case stateTombstone:
			sh.dropped--
		}
	}
	e := &sh.entries[idx]
	e.ref = slab.NilRef
	e.spillLen = 0
	e.cold = append([]byte(nil), payload...)
	e.state = stateCold
	e.refBit = false
}

// installTombstone records a dropped tenant from a snapshot. Callers hold
// sh.mu.
func (sh *farmShard) installTombstone(id TenantID) {
	idx, ok := sh.index[id]
	if !ok {
		idx = int32(len(sh.entries))
		sh.entries = append(sh.entries, entry{id: id, hotPos: -1, state: stateTombstone})
		sh.index[id] = idx
		sh.dropped++
		return
	}
	e := &sh.entries[idx]
	switch e.state {
	case stateHot:
		sh.hotRemove(idx)
		sh.arena.Free(e.ref)
	case stateSpilled:
		sh.spill.retire(e.spillLen)
	case stateTombstone:
		return
	}
	e.ref = slab.NilRef
	e.cold = nil
	e.spillLen = 0
	e.state = stateTombstone
	sh.dropped++
}

// SnapshotTenant serializes one tenant's complete state — sample, counters
// and RNG — as a self-describing frame (sketch.FrameFarmTenant), usable to
// migrate a single tenant between farms.
func (f *Farm[T]) SnapshotTenant(id TenantID) ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrFarmClosed
	}
	sh := f.shards[f.shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.index[id]
	if !ok {
		return nil, ErrUnknownTenant
	}
	e := &sh.entries[idx]
	if e.state == stateTombstone {
		return nil, ErrTenantEvicted
	}
	payload, err := sh.payloadOf(e)
	if err != nil {
		return nil, err
	}
	buf := sketch.AppendFrameHeader(nil, sketch.FrameFarmTenant)
	buf = append(buf, codecVersion)
	buf = snapshot.AppendInt64(buf, f.c.uSize)
	return append(buf, payload...), nil
}

// RestoreTenant installs a single-tenant frame under the given id,
// replacing any existing state for that tenant (an explicit restore
// revives a dropped tenant). The payload is fully validated before any
// state changes; the tenant installs cold and hydrates on first use.
func (f *Farm[T]) RestoreTenant(id TenantID, data []byte) error {
	if f.closed.Load() {
		return ErrFarmClosed
	}
	r, err := sketch.ReadFrameHeader(data, sketch.FrameFarmTenant)
	if err != nil {
		return err
	}
	version := r.Byte()
	uSize := r.Int64()
	if rerr := r.Err(); rerr != nil {
		return fmt.Errorf("%w: tenant frame: %v", ErrBadSnapshot, rerr)
	}
	if version != codecVersion {
		return fmt.Errorf("%w: farm codec version %d, want %d", ErrBadSnapshot, version, codecVersion)
	}
	if uSize != f.c.uSize {
		return fmt.Errorf("%w: snapshot universe %d, farm universe %d", ErrBadSnapshot, uSize, f.c.uSize)
	}
	payload := r.Rest()
	sh := f.shards[f.shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, _, _, err := sh.loadTenantPayload(payload); err != nil {
		return err
	}
	sh.installCold(id, payload)
	return nil
}

// Snapshot serializes the whole farm — every tenant's state, tombstones,
// and (with WithVerdicts) the per-shard discrepancy accumulators — as one
// deterministic frame.
func (f *Farm[T]) Snapshot() ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrFarmClosed
	}
	buf := sketch.AppendFrameHeader(nil, sketch.FrameFarm)
	buf = append(buf, codecVersion)
	buf = snapshot.AppendInt64(buf, f.c.uSize)
	buf = snapshot.AppendUint64(buf, f.c.seed)
	buf = append(buf, byte(f.c.kind))
	buf = snapshot.AppendInt64(buf, int64(f.c.k))
	buf = snapshot.AppendFloat64(buf, f.c.p)
	if f.c.sys != nil {
		buf = append(buf, 1, byte(f.c.system))
	} else {
		buf = append(buf, 0, 0)
	}
	// Serialize each shard under its own lock first, so the tenant count
	// and the records agree even while other shards keep ingesting.
	var records []byte
	var accs []byte
	count := uint64(0)
	for _, sh := range f.shards {
		sh.mu.Lock()
		for i := range sh.entries {
			e := &sh.entries[i]
			records = snapshot.AppendUint64(records, uint64(e.id))
			if e.state == stateTombstone {
				records = snapshot.AppendBool(records, false)
				count++
				continue
			}
			payload, err := sh.payloadOf(e)
			if err != nil {
				sh.mu.Unlock()
				return nil, err
			}
			records = snapshot.AppendBool(records, true)
			records = snapshot.AppendBytes(records, payload)
			count++
		}
		if sh.acc != nil {
			accs = sh.acc.AppendSnapshot(accs)
		}
		sh.mu.Unlock()
	}
	buf = snapshot.AppendUint64(buf, count)
	buf = append(buf, records...)
	if f.c.sys != nil {
		buf = snapshot.AppendUint64(buf, uint64(len(f.shards)))
		buf = append(buf, accs...)
	}
	return buf, nil
}

// Restore replaces the farm's entire tenant population with a snapshot
// produced by a farm of the same kind, configuration and universe. Every
// payload is validated before the current population is discarded; on a
// validation error the farm is unchanged. Restored tenants install cold
// and hydrate lazily, so restore cost is independent of slab geometry.
func (f *Farm[T]) Restore(data []byte) error {
	if f.closed.Load() {
		return ErrFarmClosed
	}
	r, err := sketch.ReadFrameHeader(data, sketch.FrameFarm)
	if err != nil {
		return err
	}
	version := r.Byte()
	uSize := r.Int64()
	seed := r.Uint64()
	kind := r.Byte()
	k := r.Int64()
	p := r.Float64()
	hasVerd := r.Byte()
	system := r.Byte()
	count := r.Uint64()
	if rerr := r.Err(); rerr != nil {
		return fmt.Errorf("%w: farm frame: %v", ErrBadSnapshot, rerr)
	}
	if version != codecVersion {
		return fmt.Errorf("%w: farm codec version %d, want %d", ErrBadSnapshot, version, codecVersion)
	}
	if uSize != f.c.uSize {
		return fmt.Errorf("%w: snapshot universe %d, farm universe %d", ErrBadSnapshot, uSize, f.c.uSize)
	}
	if seed != f.c.seed || int(kind) != f.c.kind || int(k) != f.c.k || p != f.c.p {
		return fmt.Errorf("%w: snapshot is from a differently configured farm", ErrBadSnapshot)
	}
	if (hasVerd == 1) != (f.c.sys != nil) || (hasVerd == 1 && System(system) != f.c.system) {
		return fmt.Errorf("%w: snapshot verdict configuration does not match the farm", ErrBadSnapshot)
	}
	if count > uint64(len(data)) {
		return fmt.Errorf("%w: implausible tenant count %d", ErrBadSnapshot, count)
	}
	// Stage and validate everything before touching farm state.
	type record struct {
		id      TenantID
		live    bool
		payload []byte
	}
	staged := make([]record, 0, count)
	val := f.shards[0]
	val.mu.Lock()
	for i := uint64(0); i < count; i++ {
		id := TenantID(r.Uint64())
		live := r.Bool()
		if rerr := r.Err(); rerr != nil {
			val.mu.Unlock()
			return fmt.Errorf("%w: tenant record %d: %v", ErrBadSnapshot, i, rerr)
		}
		if !live {
			staged = append(staged, record{id: id})
			continue
		}
		payload := r.Bytes()
		if rerr := r.Err(); rerr != nil {
			val.mu.Unlock()
			return fmt.Errorf("%w: tenant record %d: %v", ErrBadSnapshot, i, rerr)
		}
		if _, _, _, err := val.loadTenantPayload(payload); err != nil {
			val.mu.Unlock()
			return fmt.Errorf("tenant %d: %w", uint64(id), err)
		}
		staged = append(staged, record{id: id, live: true, payload: payload})
	}
	val.mu.Unlock()
	var stagedAccs []*setsystem.Accumulator
	if f.c.sys != nil {
		accCount := r.Uint64()
		if rerr := r.Err(); rerr != nil {
			return fmt.Errorf("%w: accumulator count: %v", ErrBadSnapshot, rerr)
		}
		if accCount > uint64(len(data)) {
			return fmt.Errorf("%w: implausible accumulator count %d", ErrBadSnapshot, accCount)
		}
		for i := uint64(0); i < accCount; i++ {
			a := f.c.sys.NewAccumulator()
			if err := a.LoadSnapshot(r); err != nil {
				return fmt.Errorf("%w: accumulator %d: %v", ErrBadSnapshot, i, err)
			}
			stagedAccs = append(stagedAccs, a)
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after farm frame", ErrBadSnapshot, r.Len())
	}
	// Wipe the current population shard by shard.
	for _, sh := range f.shards {
		sh.mu.Lock()
		for i := range sh.entries {
			e := &sh.entries[i]
			switch e.state {
			case stateHot:
				sh.hotRemove(int32(i))
				sh.arena.Free(e.ref)
			case stateSpilled:
				sh.spill.retire(e.spillLen)
			}
		}
		sh.entries = sh.entries[:0]
		sh.index = make(map[TenantID]int32)
		sh.hot = sh.hot[:0]
		sh.hand = 0
		sh.dropped = 0
		if sh.acc != nil {
			sh.acc.Reset()
		}
		sh.mu.Unlock()
	}
	// Install the staged population (validated cold payloads).
	for i := range staged {
		rec := &staged[i]
		sh := f.shards[f.shardOf(rec.id)]
		sh.mu.Lock()
		if rec.live {
			sh.installCold(rec.id, rec.payload)
		} else {
			sh.installTombstone(rec.id)
		}
		sh.mu.Unlock()
	}
	// Install the accumulators. The per-shard split is a lock-sharding
	// detail — GlobalVerdict merges them anyway — so a matching shard
	// count adopts the split verbatim (keeping re-snapshots byte-identical)
	// and any other count folds everything into shard 0.
	if len(stagedAccs) == len(f.shards) {
		for i, sh := range f.shards {
			sh.mu.Lock()
			sh.acc = stagedAccs[i]
			sh.mu.Unlock()
		}
	} else if len(stagedAccs) > 0 {
		sh0 := f.shards[0]
		sh0.mu.Lock()
		for _, a := range stagedAccs {
			sh0.acc.MergeFrom(a)
		}
		sh0.mu.Unlock()
	}
	return nil
}
