// Mergeable verdicts.
//
// The sharded continuous-sampling engine (internal/shard) keeps one
// Accumulator per shard, fed only with that shard's substream and local
// sample. A global checkpoint verdict needs the discrepancy of the UNION
// stream against the UNION sample — and because every set system's verdict
// is a pure function of the two multisets (insertion order never matters),
// the union verdict can be computed by folding the per-shard histograms into
// one engine, without re-ingesting any raw stream. MergeFrom is that fold:
// O(distinct values) per source accumulator instead of O(stream length), so
// a coordinator's verdict cost is independent of how much traffic the shards
// have absorbed since the last checkpoint.
//
// A coordinator asks for the union verdict again and again over the same
// stream, and between two checkpoints the shards mostly revisit values the
// union already holds. So its scratch keeps its layout across verdicts:
// ClearCounts zeroes the counts but keeps the slots, the value -> slot
// index and the sorted blocks, and the next round of MergeFrom refolds the
// counts into them. Only values new since the previous verdict create slots
// and reach Max's placement and sort. Reset, which drops the layout too,
// starts a new stream.
package setsystem

// MergeFrom folds other's stream and sample multisets into a: afterwards a
// holds the multiset unions, exactly as if every element ever added to other
// had been added to a directly. Max on the merged accumulator is therefore
// bit-identical (error AND witness) to MaxDiscrepancy on the concatenated
// streams and samples. other is not modified, and may have pending updates
// (a Max call on it is not required first).
//
// Both accumulators must come from the same set system (mode and universe);
// MergeFrom panics otherwise, and on a nil or aliased source.
func (a *Accumulator) MergeFrom(other *Accumulator) {
	if other == nil || other == a {
		panic("setsystem: MergeFrom needs a distinct non-nil source")
	}
	if a.mode != other.mode || a.universe != other.universe {
		panic("setsystem: MergeFrom across different set systems")
	}
	for i, v := range other.vals {
		cx, cs := other.cx[i], other.cs[i]
		if cx == 0 && cs == 0 {
			// A slot whose sample copies were all evicted and that holds
			// no stream mass contributes nothing to any verdict.
			continue
		}
		s := a.flatSlot(v)
		if s < 0 {
			s = a.slot(v)
		}
		a.cx[s] += cx
		a.cs[s] += cs
		if b := a.blockOf[s]; b != nil {
			b.sumCx += cx
			b.sumCs += cs
			if cx > 0 && a.cx[s] == cx {
				// The slot's stream count was zero before this merge.
				b.nzCx++
			}
			if a.cx[s] > b.maxCx {
				b.maxCx = a.cx[s]
			}
			b.touched = true
			b.hullValid = false
		}
	}
	a.nx += other.nx
	a.ns += other.ns
}

// ClearCounts empties both multisets but keeps the layout: the slots and
// their values, the value -> slot index (flat and probe), the sorted blocks
// and the slots still pending placement. Every block is left touched with
// its hulls invalid, so the next Max sweeps it afresh. A MergeFrom of the
// same sources then finds every value in the index and creates no slot, and
// Max places, sorts and adopts nothing.
//
// A slot that no folded source fills again stays at zero, and it cannot
// change Max: its num repeats its predecessor's, so it is never the first
// position to reach a nonzero extremum (every witness scan compares
// strictly, and the empty-prefix baseline is 0), and with cx == 0 it adds
// nothing to a block's nzCx or maxCx. Max after ClearCounts and MergeFrom
// is therefore bit-identical, error and witness, to Max after Reset and
// the same MergeFrom calls.
func (a *Accumulator) ClearCounts() {
	clear(a.cx)
	clear(a.cs)
	for _, b := range a.blocks {
		b.sumCx, b.sumCs, b.nzCx, b.maxCx = 0, 0, 0, 0
		b.touched = true
		b.hullValid = false
	}
	a.nx, a.ns = 0, 0
}

// CopyFrom overwrites a with an exact logical copy of other's state: the
// same stream and sample multisets, hence bit-identical Max verdicts. It is
// the serving runtime's read-barrier copy hook: a live query locks a shard
// only long enough to CopyFrom its accumulator — O(distinct values), no
// hull work — and runs the (costlier) Max on the copy after releasing the
// lock, so checkpoint queries overlap ingest instead of stalling it.
//
// Like MergeFrom it requires a distinct source from the same set system.
func (a *Accumulator) CopyFrom(other *Accumulator) {
	a.Reset()
	a.MergeFrom(other)
}
