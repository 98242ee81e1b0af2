package setsystem

import (
	"fmt"

	"robustsample/internal/snapshot"
)

// Accumulator snapshots serialize the engine's logical state — the two
// multisets, in slot-insertion order — not its block decomposition. The
// decomposition is a performance artifact that Max() provably cannot
// observe (verdicts are bit-identical to the one-shot sweep for every
// block layout), so restoring re-enters all slots as pending and lets the
// next Max place them. Because insertion order is preserved, snapshotting a
// restored accumulator reproduces the original bytes exactly.

// AppendSnapshot appends the accumulator's state: mode, universe, the
// slot table in insertion order (value, stream count, sample count). |X|
// and |S| are recomputed on load from the per-slot counts.
func (a *Accumulator) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, byte(a.mode))
	buf = snapshot.AppendInt64(buf, a.universe)
	buf = snapshot.AppendUint64(buf, uint64(len(a.vals)))
	for i := range a.vals {
		buf = snapshot.AppendInt64(buf, a.vals[i])
		buf = snapshot.AppendInt64(buf, a.cx[i])
		buf = snapshot.AppendInt64(buf, a.cs[i])
	}
	return buf
}

// SampleCount returns the sample multiplicity of x, 0 if x was never seen.
// Restore paths use it to cross-check a decoded accumulator against the
// decoded sampler it must stay in lockstep with.
func (a *Accumulator) SampleCount(x int64) int64 {
	if s, ok := a.lookup(x); ok {
		return a.cs[s]
	}
	return 0
}

// LoadSnapshot restores state written by AppendSnapshot into a, which must
// have been built for the same set system (mode and universe are verified).
// The accumulator is Reset first; on error it is left Reset.
func (a *Accumulator) LoadSnapshot(r *snapshot.Reader) error {
	mode := r.Byte()
	universe := r.Int64()
	n := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if accMode(mode) != a.mode || universe != a.universe {
		return fmt.Errorf("setsystem: snapshot for a different set system (mode %d universe %d, want mode %d universe %d): %w",
			mode, universe, a.mode, a.universe, snapshot.ErrCorrupt)
	}
	if n > uint64(r.Len()/24) {
		return snapshot.ErrCorrupt
	}
	a.Reset()
	for i := uint64(0); i < n; i++ {
		val := r.Int64()
		cx := r.Int64()
		cs := r.Int64()
		if r.Err() != nil || cx < 0 || cs < 0 {
			a.Reset()
			if err := r.Err(); err != nil {
				return err
			}
			return fmt.Errorf("setsystem: negative multiplicity in snapshot: %w", snapshot.ErrCorrupt)
		}
		s := a.slot(val)
		if uint64(s) != i { // duplicate value: not producible by AppendSnapshot
			a.Reset()
			return fmt.Errorf("setsystem: duplicate value %d in snapshot: %w", val, snapshot.ErrCorrupt)
		}
		a.cx[s] = cx
		a.cs[s] = cs
		a.nx += cx
		a.ns += cs
	}
	return nil
}
