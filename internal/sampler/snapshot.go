package sampler

import (
	"fmt"

	"robustsample/internal/snapshot"
)

// This file implements deterministic binary snapshots of the int64 sampler
// instantiations (the ones the adversarial games and the public sketch
// surface run on), plus the exported state hooks the public packages use
// for merging. Framing (magic/version/kind) belongs to the caller; each
// codec here encodes exactly one sampler's raw state, so codecs compose —
// the sharded engine concatenates per-shard sampler and accumulator
// snapshots into one frame.
//
// Restoring replaces the receiver's full state, configuration included
// (capacity, rate): a snapshot is a checkpoint, not a patch. The pending
// LastDelta of the snapshotted sampler is NOT carried over — deltas
// describe the most recent Offer and a restored sampler has not offered
// anything yet.

// Snapshot kind bytes, used by composite codecs (the sharded engine) and
// the public sketch framing to tag which sampler state follows.
const (
	KindBernoulli       = 1
	KindReservoir       = 2
	KindReservoirL      = 3
	KindWithReplacement = 4
	KindWeighted        = 5
)

// SamplerKind returns the snapshot kind byte for a supported sampler, or 0
// for types without a snapshot codec.
func SamplerKind(s any) byte {
	switch s.(type) {
	case *Bernoulli[int64]:
		return KindBernoulli
	case *Reservoir[int64]:
		return KindReservoir
	case *ReservoirL[int64]:
		return KindReservoirL
	case *WithReplacement[int64]:
		return KindWithReplacement
	case *WeightedReservoir[int64]:
		return KindWeighted
	}
	return 0
}

// AppendState appends the snapshot of a supported int64 sampler, prefixed
// with its kind byte. It fails for sampler types without a codec.
func AppendState(buf []byte, s any) ([]byte, error) {
	switch v := s.(type) {
	case *Bernoulli[int64]:
		return AppendBernoulliState(append(buf, KindBernoulli), v), nil
	case *Reservoir[int64]:
		return AppendReservoirState(append(buf, KindReservoir), v), nil
	case *ReservoirL[int64]:
		return AppendReservoirLState(append(buf, KindReservoirL), v), nil
	case *WithReplacement[int64]:
		return AppendWithReplacementState(append(buf, KindWithReplacement), v), nil
	case *WeightedReservoir[int64]:
		return AppendWeightedState(append(buf, KindWeighted), v), nil
	}
	return nil, fmt.Errorf("sampler: no snapshot codec for %T", s)
}

// LoadState restores a kind-prefixed snapshot (as written by AppendState)
// into s, which must be the matching sampler type.
func LoadState(r *snapshot.Reader, s any) error {
	kind := r.Byte()
	if err := r.Err(); err != nil {
		return err
	}
	if want := SamplerKind(s); want == 0 || kind != want {
		return fmt.Errorf("sampler: snapshot kind %d does not match sampler %T: %w", kind, s, snapshot.ErrCorrupt)
	}
	switch v := s.(type) {
	case *Bernoulli[int64]:
		return LoadBernoulliState(r, v)
	case *Reservoir[int64]:
		return LoadReservoirState(r, v)
	case *ReservoirL[int64]:
		return LoadReservoirLState(r, v)
	case *WithReplacement[int64]:
		return LoadWithReplacementState(r, v)
	case *WeightedReservoir[int64]:
		return LoadWeightedState(r, v)
	}
	return fmt.Errorf("sampler: no snapshot codec for %T", s)
}

// AppendBernoulliState appends b's raw state.
func AppendBernoulliState(buf []byte, b *Bernoulli[int64]) []byte {
	buf = snapshot.AppendFloat64(buf, b.P)
	buf = snapshot.AppendInt64(buf, int64(b.rounds))
	buf = snapshot.AppendInt64(buf, b.skip)
	buf = snapshot.AppendBool(buf, b.hasSkip)
	return snapshot.AppendInt64Slice(buf, b.items)
}

// LoadBernoulliState restores state written by AppendBernoulliState. The
// items decode into b's existing sample buffer, so a receiver reused
// across loads stops allocating once its buffer fits the largest sample;
// on error b's state is unspecified.
func LoadBernoulliState(r *snapshot.Reader, b *Bernoulli[int64]) error {
	p := r.Float64()
	rounds := r.Int64()
	skip := r.Int64()
	hasSkip := r.Bool()
	items := r.AppendInt64Slice(b.items[:0])
	if err := r.Err(); err != nil {
		return err
	}
	if p < 0 || p > 1 || rounds < 0 || int64(len(items)) > rounds || (hasSkip && skip < 0) {
		return fmt.Errorf("sampler: inconsistent Bernoulli snapshot: %w", snapshot.ErrCorrupt)
	}
	b.P = p
	b.items = items
	b.rounds = int(rounds)
	b.skip = skip
	b.hasSkip = hasSkip
	b.invLogQ = 0 // lazily recomputed from P on the next batch
	b.delta.clear()
	return nil
}

// AppendReservoirState appends v's raw state.
func AppendReservoirState(buf []byte, v *Reservoir[int64]) []byte {
	buf = snapshot.AppendInt64(buf, int64(v.K))
	buf = snapshot.AppendInt64(buf, int64(v.rounds))
	buf = snapshot.AppendInt64(buf, int64(v.admitted))
	return snapshot.AppendInt64Slice(buf, v.items)
}

// LoadReservoirState restores state written by AppendReservoirState. The
// items decode into v's existing sample buffer, as in
// LoadBernoulliState; on error v's state is unspecified.
func LoadReservoirState(r *snapshot.Reader, v *Reservoir[int64]) error {
	k := r.Int64()
	rounds := r.Int64()
	admitted := r.Int64()
	items := r.AppendInt64Slice(v.items[:0])
	if err := r.Err(); err != nil {
		return err
	}
	if k < 1 || rounds < 0 || admitted < int64(len(items)) || int64(len(items)) > k {
		return fmt.Errorf("sampler: inconsistent reservoir snapshot: %w", snapshot.ErrCorrupt)
	}
	v.K = int(k)
	v.items = items
	v.rounds = int(rounds)
	v.admitted = int(admitted)
	v.delta.clear()
	return nil
}

// AppendReservoirLState appends v's raw state, including the Algorithm L
// skip machinery so restored samplers continue the exact skip sequence.
func AppendReservoirLState(buf []byte, v *ReservoirL[int64]) []byte {
	buf = snapshot.AppendInt64(buf, int64(v.K))
	buf = snapshot.AppendInt64(buf, int64(v.rounds))
	buf = snapshot.AppendInt64(buf, int64(v.admitted))
	buf = snapshot.AppendFloat64(buf, v.w)
	buf = snapshot.AppendInt64(buf, v.skip)
	return snapshot.AppendInt64Slice(buf, v.items)
}

// LoadReservoirLState restores state written by AppendReservoirLState.
func LoadReservoirLState(r *snapshot.Reader, v *ReservoirL[int64]) error {
	k := r.Int64()
	rounds := r.Int64()
	admitted := r.Int64()
	w := r.Float64()
	skip := r.Int64()
	items := r.Int64Slice()
	if err := r.Err(); err != nil {
		return err
	}
	if k < 1 || rounds < 0 || admitted < int64(len(items)) || int64(len(items)) > k {
		return fmt.Errorf("sampler: inconsistent reservoir-L snapshot: %w", snapshot.ErrCorrupt)
	}
	v.K = int(k)
	v.items = items
	v.rounds = int(rounds)
	v.admitted = int(admitted)
	v.w = w
	v.skip = skip
	v.delta.clear()
	return nil
}

// AppendWeightedState appends w's raw state. Keys and items are stored in
// heap order, which is part of the state: restoring preserves the exact
// displacement behaviour of the original heap layout.
func AppendWeightedState(buf []byte, w *WeightedReservoir[int64]) []byte {
	buf = snapshot.AppendInt64(buf, int64(w.K))
	buf = snapshot.AppendInt64(buf, int64(w.rounds))
	buf = snapshot.AppendFloat64Slice(buf, w.keys)
	return snapshot.AppendInt64Slice(buf, w.items)
}

// LoadWeightedState restores state written by AppendWeightedState.
func LoadWeightedState(r *snapshot.Reader, w *WeightedReservoir[int64]) error {
	k := r.Int64()
	rounds := r.Int64()
	keys := r.Float64Slice()
	items := r.Int64Slice()
	if err := r.Err(); err != nil {
		return err
	}
	if k < 1 || rounds < 0 || len(keys) != len(items) || int64(len(items)) > k {
		return fmt.Errorf("sampler: inconsistent weighted-reservoir snapshot: %w", snapshot.ErrCorrupt)
	}
	w.K = int(k)
	w.keys = keys
	w.items = items
	w.rounds = int(rounds)
	w.delta.clear()
	return nil
}

// AppendWithReplacementState appends s's raw state.
func AppendWithReplacementState(buf []byte, s *WithReplacement[int64]) []byte {
	buf = snapshot.AppendInt64(buf, int64(s.K))
	buf = snapshot.AppendInt64(buf, int64(s.rounds))
	buf = snapshot.AppendBool(buf, s.filled)
	return snapshot.AppendInt64Slice(buf, s.items)
}

// LoadWithReplacementState restores state written by
// AppendWithReplacementState.
func LoadWithReplacementState(r *snapshot.Reader, s *WithReplacement[int64]) error {
	k := r.Int64()
	rounds := r.Int64()
	filled := r.Bool()
	items := r.Int64Slice()
	if err := r.Err(); err != nil {
		return err
	}
	if k < 1 || rounds < 0 || (filled && int64(len(items)) != k) || (!filled && len(items) != 0) {
		return fmt.Errorf("sampler: inconsistent with-replacement snapshot: %w", snapshot.ErrCorrupt)
	}
	s.K = int(k)
	if !filled {
		items = make([]int64, k)
	}
	s.items = items
	s.filled = filled
	s.rounds = int(rounds)
	s.delta.clear()
	return nil
}

// SetMergedState overwrites a reservoir with the outcome of a coordinator
// merge ([CTW16] fan-in): items becomes the sample (copied), rounds the
// represented population size, and admitted the combined admission count.
// The public sketch surface uses it to implement MergeFrom on top of
// MergeSamples.
func (v *Reservoir[T]) SetMergedState(items []T, rounds, admitted int) {
	v.items = append(v.items[:0], items...)
	v.rounds = rounds
	v.admitted = admitted
	v.delta.clear()
}

// SetMergedState is the Bernoulli analogue: the union of two Bernoulli(p)
// samples over disjoint streams is a Bernoulli(p) sample of the
// concatenation, so merging is append + round addition.
func (b *Bernoulli[T]) SetMergedState(items []T, rounds int) {
	b.items = append(b.items[:0], items...)
	b.rounds = rounds
	b.delta.clear()
}
