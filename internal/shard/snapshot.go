package shard

import (
	"errors"
	"fmt"
	"slices"

	"robustsample/internal/sampler"
	"robustsample/internal/snapshot"
)

// ErrUnsnapshottable is returned when an engine cannot be serialized
// because its samplers have no snapshot codec.
var ErrUnsnapshottable = errors.New("shard: engine configuration has no snapshot codec")

// AppendState appends the engine's full dynamic state: coordinator rounds,
// the routing RNG, and per shard the private RNG, substream length, sampler
// state and accumulator state. Configuration (shard count, router, set
// system, worker pool) is NOT serialized — a snapshot restores into an
// engine built with the same Config, which is verified structurally on
// load. Every router is stateless given its inputs, so no router state is
// needed.
func AppendState(buf []byte, e *Engine) ([]byte, error) {
	if e.routerRNG == nil {
		return nil, fmt.Errorf("shard: engine not seeded (call StartGame before snapshotting)")
	}
	buf = snapshot.AppendInt64(buf, int64(e.rounds))
	buf = snapshot.AppendUint64(buf, uint64(len(e.shards)))
	hi, lo := e.routerRNG.State()
	buf = snapshot.AppendUint64(buf, hi)
	buf = snapshot.AppendUint64(buf, lo)
	for _, sh := range e.shards {
		var err error
		buf, err = appendShardBlock(buf, sh)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendShardBlock appends one shard's dynamic state — its private RNG,
// substream length, sampler state and accumulator state. It is the
// per-shard unit of both the full engine snapshot and the serving runtime's
// per-shard crash checkpoints (a block restores independently of the other
// shards, which is what makes single-shard recovery possible).
func appendShardBlock(buf []byte, sh *shardState) ([]byte, error) {
	if len(sh.pending) != 0 {
		return nil, fmt.Errorf("shard: snapshot with pending un-ingested elements")
	}
	hi, lo := sh.rng.State()
	buf = snapshot.AppendUint64(buf, hi)
	buf = snapshot.AppendUint64(buf, lo)
	buf = snapshot.AppendInt64(buf, int64(sh.rounds))
	// The has-sampler byte is always 1. The block keeps it so that
	// snapshot bytes stay as they are; loadShardBlock rejects 0.
	buf = snapshot.AppendBool(buf, true)
	var err error
	buf, err = sampler.AppendState(buf, sh.sampler)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsnapshottable, err)
	}
	return sh.acc.AppendSnapshot(buf), nil
}

// LoadState restores state written by AppendState into e, which must have
// been built with an equivalent Config (same shard count, same sampler
// shapes, same set system) and seeded at least once. On success the engine
// behaves exactly as the snapshotted one would for any subsequent traffic.
func LoadState(r *snapshot.Reader, e *Engine) error {
	if e.routerRNG == nil {
		return fmt.Errorf("shard: engine not seeded (call StartGame before restoring)")
	}
	rounds := r.Int64()
	nShards := r.Uint64()
	routerHi := r.Uint64()
	routerLo := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if rounds < 0 || nShards != uint64(len(e.shards)) {
		return fmt.Errorf("shard: snapshot has %d shards, engine has %d: %w", nShards, len(e.shards), snapshot.ErrCorrupt)
	}
	e.rounds = int(rounds)
	e.routerRNG.SetState(routerHi, routerLo)
	e.resetGlobal()
	for _, sh := range e.shards {
		if err := loadShardBlock(r, sh); err != nil {
			return err
		}
	}
	return nil
}

// loadShardBlock restores one shard from a block written by
// appendShardBlock; the shard must have the same sampler layout, and a
// block without a sampler is corrupt.
func loadShardBlock(r *snapshot.Reader, sh *shardState) error {
	hi := r.Uint64()
	lo := r.Uint64()
	shRounds := r.Int64()
	hasSampler := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if shRounds < 0 || !hasSampler {
		return fmt.Errorf("shard: snapshot sampler layout does not match engine config: %w", snapshot.ErrCorrupt)
	}
	sh.rng.SetState(hi, lo)
	sh.rounds = int(shRounds)
	sh.pending = sh.pending[:0]
	if err := sampler.LoadState(r, sh.sampler); err != nil {
		return err
	}
	if err := sh.acc.LoadSnapshot(r); err != nil {
		return err
	}
	// Cross-validate the two independently-decoded halves: the accumulator
	// mirrors the sampler element by element on the ingest path, so a
	// snapshot whose sample multiset disagrees with the sampler's retained
	// items (or whose stream length disagrees with the round count) would
	// desynchronize them and panic on the first eviction of a phantom
	// element. Each half validates internally; only the pair check catches
	// bytes corrupted in just one of them.
	if int64(sh.acc.StreamLen()) != shRounds {
		return fmt.Errorf("shard: snapshot accumulator stream length %d does not match %d rounds: %w",
			sh.acc.StreamLen(), shRounds, snapshot.ErrCorrupt)
	}
	items := sh.sampler.View()
	if sh.acc.SampleLen() != len(items) {
		return fmt.Errorf("shard: snapshot accumulator holds %d sample elements, sampler retains %d: %w",
			sh.acc.SampleLen(), len(items), snapshot.ErrCorrupt)
	}
	sorted := slices.Clone(items)
	slices.Sort(sorted)
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if sh.acc.SampleCount(sorted[i]) != int64(j-i) {
			return fmt.Errorf("shard: snapshot sample multiset disagrees with sampler items at value %d: %w",
				sorted[i], snapshot.ErrCorrupt)
		}
		i = j
	}
	return nil
}
