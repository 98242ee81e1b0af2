package setsystem

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/snapshot"
)

func allSystems(n int64) []SetSystem {
	return []SetSystem{NewPrefixes(n), NewIntervals(n), NewSingletons(n), NewSuffixes(n)}
}

// requireEqual asserts bit-exact parity between the incremental and one-shot
// discrepancy results: error AND witness.
func requireEqual(t *testing.T, sys SetSystem, got, want Discrepancy, stream, sample []int64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: accumulator %v != one-shot %v (stream=%v sample=%v)",
			sys.Name(), got, want, stream, sample)
	}
}

// TestAccumulatorMatchesOneShot is the differential test of the incremental
// engine: randomized streams and samples, including sample removals driven
// like reservoir evictions, must agree bit-for-bit with MaxDiscrepancy for
// all four set systems at every step.
func TestAccumulatorMatchesOneShot(t *testing.T) {
	const universe = 64
	r := rng.New(42)
	for _, sys := range allSystems(universe) {
		for trial := 0; trial < 30; trial++ {
			acc := sys.NewAccumulator()
			var stream, sample []int64
			steps := 30 + r.Intn(60)
			for step := 0; step < steps; step++ {
				x := 1 + r.Int63n(universe)
				stream = append(stream, x)
				acc.AddStream(x)

				// Mimic a reservoir: sometimes admit, sometimes admit
				// with eviction of a random current sample element.
				if r.Float64() < 0.5 {
					if len(sample) > 4 && r.Float64() < 0.6 {
						j := r.Intn(len(sample))
						acc.RemoveSample(sample[j])
						sample[j] = sample[len(sample)-1]
						sample = sample[:len(sample)-1]
					}
					acc.AddSample(x)
					sample = append(sample, x)
				}

				// Evaluate at random checkpoints and always at the end.
				if r.Float64() < 0.3 || step == steps-1 {
					requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
				}
			}
			if acc.StreamLen() != len(stream) || acc.SampleLen() != len(sample) {
				t.Fatalf("%s: lengths %d/%d, want %d/%d",
					sys.Name(), acc.StreamLen(), acc.SampleLen(), len(stream), len(sample))
			}
		}
	}
}

// TestAccumulatorEmptySample checks the empty-sample special cases (error 1
// with the system-specific witness), including a sample that was drained
// back to empty by removals.
func TestAccumulatorEmptySample(t *testing.T) {
	for _, sys := range allSystems(16) {
		acc := sys.NewAccumulator()
		stream := []int64{3, 9, 9, 14}
		for _, x := range stream {
			acc.AddStream(x)
		}
		requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, nil), stream, nil)

		// Drain an added-then-removed sample: must match again.
		acc.AddSample(9)
		acc.AddSample(3)
		acc.RemoveSample(9)
		acc.RemoveSample(3)
		requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, nil), stream, nil)
	}
}

func TestAccumulatorEmptyStream(t *testing.T) {
	for _, sys := range allSystems(16) {
		acc := sys.NewAccumulator()
		if d := acc.Max(); d != (Discrepancy{}) {
			t.Fatalf("%s: empty accumulator discrepancy %v, want zero", sys.Name(), d)
		}
		acc.AddSample(5)
		if d := acc.Max(); d != (Discrepancy{}) {
			t.Fatalf("%s: empty stream discrepancy %v, want zero", sys.Name(), d)
		}
	}
}

func TestAccumulatorPerfectSampleZero(t *testing.T) {
	for _, sys := range allSystems(16) {
		acc := sys.NewAccumulator()
		for _, x := range []int64{2, 5, 5, 11} {
			acc.AddStream(x)
			acc.AddSample(x)
		}
		if d := acc.Max(); d.Err != 0 {
			t.Fatalf("%s: perfect sample error %v, want 0", sys.Name(), d.Err)
		}
	}
}

func TestAccumulatorRemoveAbsentPanics(t *testing.T) {
	acc := NewPrefixes(8).NewAccumulator()
	acc.AddStream(3)
	acc.AddSample(3)
	acc.RemoveSample(3)
	for _, x := range []int64{3, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RemoveSample(%d) of absent element should panic", x)
				}
			}()
			acc.RemoveSample(x)
		}()
	}
}

// TestAccumulatorReset checks that a reset accumulator behaves like a fresh
// one, including its lazily merged sorted order.
func TestAccumulatorReset(t *testing.T) {
	sys := NewIntervals(32)
	acc := sys.NewAccumulator()
	for _, x := range []int64{7, 7, 20, 3} {
		acc.AddStream(x)
	}
	acc.AddSample(20)
	acc.Max()
	acc.Reset()
	if acc.StreamLen() != 0 || acc.SampleLen() != 0 {
		t.Fatal("reset accumulator not empty")
	}
	stream := []int64{4, 8, 8}
	sample := []int64{8}
	for _, x := range stream {
		acc.AddStream(x)
	}
	for _, x := range sample {
		acc.AddSample(x)
	}
	requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
}

// TestAccumulatorInterleavedMax verifies that calling Max between every
// update (forcing incremental pending merges of size one) agrees with a
// single batch evaluation.
func TestAccumulatorInterleavedMax(t *testing.T) {
	r := rng.New(7)
	for _, sys := range allSystems(20) {
		acc := sys.NewAccumulator()
		var stream, sample []int64
		for i := 0; i < 50; i++ {
			x := 1 + r.Int63n(20)
			stream = append(stream, x)
			acc.AddStream(x)
			if i%3 == 0 {
				sample = append(sample, x)
				acc.AddSample(x)
			}
			requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
		}
	}
}

// TestAccumulatorMultiBlockParity forces small blocks (so the sqrt
// decomposition, offset pass, hull queries, block splitting and witness
// rescans are all exercised across many blocks) and demands bit-exact
// parity with the one-shot on randomized eviction-heavy histories.
func TestAccumulatorMultiBlockParity(t *testing.T) {
	const universe = 4096
	r := rng.New(1234)
	for _, sys := range allSystems(universe) {
		for trial := 0; trial < 8; trial++ {
			acc := sys.NewAccumulator()
			acc.blockB = 4 // force many blocks; placePending may grow it
			var stream, sample []int64
			steps := 400 + r.Intn(400)
			for step := 0; step < steps; step++ {
				x := 1 + r.Int63n(universe)
				stream = append(stream, x)
				acc.AddStream(x)
				if r.Float64() < 0.4 {
					if len(sample) > 8 && r.Float64() < 0.5 {
						j := r.Intn(len(sample))
						acc.RemoveSample(sample[j])
						sample[j] = sample[len(sample)-1]
						sample = sample[:len(sample)-1]
					}
					acc.AddSample(x)
					sample = append(sample, x)
				}
				if step%37 == 0 || step == steps-1 {
					requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
				}
			}
			if len(acc.blocks) < 2 {
				t.Fatalf("%s: expected multiple blocks, got %d", sys.Name(), len(acc.blocks))
			}
		}
	}
}

// TestAccumulatorReusedAcrossRuns drives one accumulator through many
// Reset/replay cycles (the Monte-Carlo per-worker reuse pattern, which also
// switches small universes from the epoch-stamped probe table onto the
// flat table, and keeps the flat table across Resets) and demands bit-exact
// parity with a freshly built accumulator and the one-shot on every run.
// Over U = 512 the switch comes with the 97th distinct value: the probe
// table's grow from 128 to 256 slots (4 KB) would cost more than the flat
// table over [0, 512] (2 KB).
func TestAccumulatorReusedAcrossRuns(t *testing.T) {
	const universe, switchAt = 512, 97
	r := rng.New(77)
	forms := map[string]int{}
	for _, sys := range allSystems(universe) {
		reused := sys.NewAccumulator()
		switched := false
		for run := 0; run < 10; run++ {
			reused.Reset()
			fresh := sys.NewAccumulator()
			var stream, sample []int64
			steps := 50 + r.Intn(150)
			for i := 0; i < steps; i++ {
				x := 1 + r.Int63n(universe)
				stream = append(stream, x)
				reused.AddStream(x)
				fresh.AddStream(x)
				switch {
				case r.Float64() < 0.35:
					sample = append(sample, x)
					reused.AddSample(x)
					fresh.AddSample(x)
				case len(sample) > 3 && r.Float64() < 0.2:
					j := r.Intn(len(sample))
					reused.RemoveSample(sample[j])
					fresh.RemoveSample(sample[j])
					sample[j] = sample[len(sample)-1]
					sample = sample[:len(sample)-1]
				}
			}
			got, want := reused.Max(), fresh.Max()
			if got != want {
				t.Fatalf("%s run %d: reused %v != fresh %v", sys.Name(), run, got, want)
			}
			distinct := len(fresh.vals)
			switched = switched || distinct >= switchAt
			wantFresh, wantReused := "probe", "probe"
			if distinct >= switchAt {
				wantFresh = "flat"
			}
			if switched {
				wantReused = "flat"
			}
			if indexForm(fresh) != wantFresh || indexForm(reused) != wantReused {
				t.Fatalf("%s run %d (%d distinct): fresh %s, reused %s index, want %s and %s",
					sys.Name(), run, distinct, indexForm(fresh), indexForm(reused), wantFresh, wantReused)
			}
			forms[indexForm(fresh)]++
			requireEqual(t, sys, got, sys.MaxDiscrepancy(stream, sample), stream, sample)
			if reused.StreamLen() != len(stream) || reused.SampleLen() != len(sample) {
				t.Fatalf("%s run %d: lengths %d/%d", sys.Name(), run, reused.StreamLen(), reused.SampleLen())
			}
		}
	}
	if forms["probe"] == 0 || forms["flat"] == 0 {
		t.Fatalf("runs per index form %v, want both", forms)
	}
}

// TestAccumulatorAddStreamBatch checks the bulk-ingest form agrees with
// element-at-a-time AddStream, interleaved with checkpoints.
func TestAccumulatorAddStreamBatch(t *testing.T) {
	r := rng.New(9)
	for _, sys := range allSystems(512) {
		a := sys.NewAccumulator()
		b := sys.NewAccumulator()
		var stream []int64
		for round := 0; round < 20; round++ {
			batch := make([]int64, r.Intn(60))
			for i := range batch {
				batch[i] = 1 + r.Int63n(512)
			}
			stream = append(stream, batch...)
			a.AddStreamBatch(batch)
			for _, x := range batch {
				b.AddStream(x)
			}
			if len(batch) > 0 {
				x := batch[r.Intn(len(batch))]
				a.AddSample(x)
				b.AddSample(x)
			}
			da, db := a.Max(), b.Max()
			if da != db {
				t.Fatalf("%s: batch %v != serial %v", sys.Name(), da, db)
			}
			requireEqual(t, sys, da, sys.MaxDiscrepancy(stream, seqSample(b)), stream, seqSample(b))
		}
	}
}

// seqSample reconstructs the sample multiset of an accumulator from its
// internal histogram, for one-shot comparison.
func seqSample(a *Accumulator) []int64 {
	var out []int64
	for s, c := range a.cs {
		for i := int64(0); i < c; i++ {
			out = append(out, a.vals[s])
		}
	}
	return out
}

// BenchmarkAccumulatorVerdictEveryK measures the amortized cost of one
// "span of K updates + exact verdict" cycle at a stationary structure (the
// bounded universe keeps the distinct-value count ~steady), sweeping the
// checkpoint density K — the scaling curve of the block/hull engine. The
// flat arm forces a single block, reproducing the previous engine's full
// sweep per verdict, so the two arms are a like-for-like before/after. At
// K=1 almost every block answers from a cached hull; as K grows the
// dirty-block sweeps take over and the block engine converges to the flat
// cost instead of exceeding it.
func BenchmarkAccumulatorVerdictEveryK(b *testing.B) {
	const universe = 1 << 17
	for _, engine := range []string{"block", "flat"} {
		for _, k := range []int{1, 8, 64, 512, 4096} {
			b.Run(fmt.Sprintf("engine=%s/K=%d", engine, k), func(b *testing.B) {
				r := rng.New(1)
				sys := NewPrefixes(universe)
				acc := sys.NewAccumulator()
				if engine == "flat" {
					acc.blockB = 1 << 30 // one block: every verdict is a full sweep
				}
				for i := 0; i < 100000; i++ {
					acc.AddStream(1 + r.Int63n(universe))
				}
				for i := 0; i < 1000; i++ {
					acc.AddSample(1 + r.Int63n(universe))
				}
				acc.Max()
				acc.AddStream(1 + r.Int63n(universe))
				acc.Max()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < k; j++ {
						acc.AddStream(1 + r.Int63n(universe))
					}
					acc.Max()
				}
			})
		}
	}
}

func BenchmarkAccumulatorCheckpoint(b *testing.B) {
	// One checkpoint evaluation over a large accumulated stream: the cost
	// the incremental engine pays where cdfScan would re-sort the prefix.
	r := rng.New(1)
	sys := NewPrefixes(1 << 20)
	acc := sys.NewAccumulator()
	for i := 0; i < 100000; i++ {
		acc.AddStream(1 + r.Int63n(1<<20))
	}
	for i := 0; i < 1000; i++ {
		acc.AddSample(1 + r.Int63n(1<<20))
	}
	// Two warm-up verdicts reach the steady state the benchmark measures:
	// the first places blocks and sweeps them, the second (all blocks
	// quiet) builds their hulls, so timed iterations pay the real
	// per-checkpoint cost — a dirty-block sweep or two plus O(log B) hull
	// queries elsewhere — rather than one-time hull construction.
	acc.Max()
	acc.AddStream(1 + r.Int63n(1<<20))
	acc.Max()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.AddStream(1 + r.Int63n(1<<20))
		acc.Max()
	}
}

// indexForm names the value -> slot index an accumulator holds.
func indexForm(a *Accumulator) string {
	if a.flat != nil {
		return "flat"
	}
	return "probe"
}

// multisets mirrors an accumulator's stream and sample for one-shot
// comparison.
type multisets struct{ stream, sample []int64 }

// play feeds steps random updates to acc and m (reservoir-like sample
// admissions and evictions), checking parity with the one-shot every 97
// steps and at the end. draw picks each stream value.
func (m *multisets) play(t *testing.T, sys SetSystem, acc *Accumulator, r *rng.RNG, steps int, draw func() int64) {
	t.Helper()
	for step := 0; step < steps; step++ {
		x := draw()
		m.stream = append(m.stream, x)
		acc.AddStream(x)
		if r.Float64() < 0.3 {
			if len(m.sample) > 8 && r.Float64() < 0.5 {
				j := r.Intn(len(m.sample))
				acc.RemoveSample(m.sample[j])
				m.sample[j] = m.sample[len(m.sample)-1]
				m.sample = m.sample[:len(m.sample)-1]
			}
			acc.AddSample(x)
			m.sample = append(m.sample, x)
		}
		if step%97 == 0 || step == steps-1 {
			requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(m.stream, m.sample), m.stream, m.sample)
		}
	}
}

// merged is the union of two multisets.
func merged(a, b multisets) multisets {
	return multisets{
		stream: append(append([]int64(nil), a.stream...), b.stream...),
		sample: append(append([]int64(nil), a.sample...), b.sample...),
	}
}

// TestAccumulatorIndexSwitchParity drives one accumulator per set system
// from the probe table across the switch to the flat table, with values
// <= 0 and > U mixed in (values outside [0, U] stay in the probe table), and
// demands bit-exact parity with MaxDiscrepancy on both sides of the switch.
// It then Resets the switched accumulator and reuses it, and merges and
// copies between switched and unswitched accumulators.
func TestAccumulatorIndexSwitchParity(t *testing.T) {
	const universe = 4096
	r := rng.New(2323)
	draw := func() int64 {
		switch r.Intn(16) {
		case 0:
			return -r.Int63n(8) // 0 and below
		case 1:
			return universe + 1 + r.Int63n(8)
		}
		return 1 + r.Int63n(universe)
	}
	for _, sys := range allSystems(universe) {
		t.Run(sys.Name(), func(t *testing.T) {
			acc := sys.NewAccumulator()
			acc.blockB = 16 // many blocks, so slots are placed before and after the switch
			var m multisets
			// 32 probe slots grow at 3/4 load through 64, ..., 1024; at 768
			// values the grow to 2048 slots (32 KB) would cost more than
			// the flat table over [0, 4096] (16 KB), so the 769th distinct
			// value switches the index.
			m.play(t, sys, acc, r, 600, draw)
			if indexForm(acc) != "probe" || len(acc.vals) > 768 {
				t.Fatalf("%s index with %d distinct values after the first phase, want probe with <= 768",
					indexForm(acc), len(acc.vals))
			}
			m.play(t, sys, acc, r, 1500, draw)
			if indexForm(acc) != "flat" {
				t.Fatalf("probe index with %d distinct values, want flat", len(acc.vals))
			}
			outside := 0
			for _, v := range acc.vals {
				if v < 0 || v > universe {
					outside++
				}
			}
			if outside == 0 || acc.index.live != outside {
				t.Fatalf("probe table holds %d values after the switch, want the %d outside [0, U]", acc.index.live, outside)
			}

			acc.Reset()
			if indexForm(acc) != "flat" || slices.ContainsFunc(acc.flat, func(s int32) bool { return s != 0 }) {
				t.Fatal("Reset must keep the flat table and clear every entry")
			}
			m = multisets{}
			m.play(t, sys, acc, r, 1200, draw)

			small := sys.NewAccumulator()
			var sm multisets
			sm.play(t, sys, small, r, 60, draw)
			if indexForm(small) != "probe" {
				t.Fatalf("%d distinct values switched the index", len(small.vals))
			}

			// A probe accumulator that switches in the middle of a merge.
			fresh := sys.NewAccumulator()
			fresh.MergeFrom(small)
			fresh.MergeFrom(acc)
			want := merged(sm, m)
			requireEqual(t, sys, fresh.Max(), sys.MaxDiscrepancy(want.stream, want.sample), want.stream, want.sample)
			if indexForm(fresh) != "flat" {
				t.Fatal("merging a switched accumulator left the probe index")
			}
			// A switched accumulator merging an unswitched one.
			acc.MergeFrom(small)
			requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(want.stream, want.sample), want.stream, want.sample)

			// Copies in both directions.
			cp := sys.NewAccumulator()
			cp.CopyFrom(acc)
			requireEqual(t, sys, cp.Max(), sys.MaxDiscrepancy(want.stream, want.sample), want.stream, want.sample)
			acc.CopyFrom(small)
			requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(sm.stream, sm.sample), sm.stream, sm.sample)
			if indexForm(acc) != "flat" || indexForm(cp) != "flat" {
				t.Fatalf("copies hold %s and %s indexes, want flat", indexForm(acc), indexForm(cp))
			}
		})
	}
}

// TestAccumulatorSnapshotIndexForms checks AppendSnapshot -> LoadSnapshot ->
// AppendSnapshot byte identity and SampleCount agreement on both index
// forms, values outside [1, U] included.
func TestAccumulatorSnapshotIndexForms(t *testing.T) {
	const universe = 4096
	r := rng.New(31)
	draw := func() int64 { return r.Int63n(universe+17) - 8 } // [-8, U+8]
	for _, tc := range []struct {
		steps int
		form  string
	}{{100, "probe"}, {3000, "flat"}} {
		for _, sys := range allSystems(universe) {
			acc := sys.NewAccumulator()
			var m multisets
			m.play(t, sys, acc, r, tc.steps, draw)
			if indexForm(acc) != tc.form {
				t.Fatalf("%s: %d steps gave a %s index, want %s", sys.Name(), tc.steps, indexForm(acc), tc.form)
			}
			s1 := acc.AppendSnapshot(nil)
			restored := sys.NewAccumulator()
			if err := restored.LoadSnapshot(snapshot.NewReader(s1)); err != nil {
				t.Fatal(err)
			}
			if s2 := restored.AppendSnapshot(nil); !bytes.Equal(s1, s2) {
				t.Fatalf("%s/%s: snapshot not bit-identical after restore", sys.Name(), tc.form)
			}
			if indexForm(restored) != tc.form {
				t.Fatalf("%s: restored into a %s index, want %s", sys.Name(), indexForm(restored), tc.form)
			}
			for v := int64(-10); v <= universe+10; v++ {
				if got, want := restored.SampleCount(v), acc.SampleCount(v); got != want {
					t.Fatalf("%s/%s: SampleCount(%d) = %d after restore, want %d", sys.Name(), tc.form, v, got, want)
				}
			}
			if got, want := restored.Max(), acc.Max(); got != want {
				t.Fatalf("%s/%s: restored verdict %v != %v", sys.Name(), tc.form, got, want)
			}
		}
	}
}

// TestAccumulatorFlatBatchAllocs pins AddStreamBatch at zero allocations
// on the flat table.
func TestAccumulatorFlatBatchAllocs(t *testing.T) {
	const universe = 4096
	r := rng.New(5)
	acc := NewPrefixes(universe).NewAccumulator()
	batch := make([]int64, 1024)
	for i := range batch {
		batch[i] = 1 + r.Int63n(universe)
	}
	for i := 0; i < 4; i++ {
		acc.AddStreamBatch(batch)
	}
	acc.Max()
	if indexForm(acc) != "flat" {
		t.Fatalf("%d distinct values kept the probe index", len(acc.vals))
	}
	if n := testing.AllocsPerRun(100, func() { acc.AddStreamBatch(batch) }); n != 0 {
		t.Fatalf("AddStreamBatch on the flat table: %v allocs/run, want 0", n)
	}
}

// TestAccumulatorFlatNeverLarger asserts the switch rule: an accumulator
// holds a flat table only where the probe table it replaced — the grown
// table a grow would have built, or the table Reserve would have sized —
// is at least as large (16 B per probe slot against 4 B per flat entry). It
// also pins which form each of the repository's workloads takes.
func TestAccumulatorFlatNeverLarger(t *testing.T) {
	check := func(t *testing.T, universe int64, distinct int) {
		t.Helper()
		acc := NewPrefixes(universe).NewAccumulator()
		for v := int64(1); v <= int64(distinct) && v <= universe; v++ {
			probeBefore := len(acc.index.keys)
			acc.AddStream(v)
			if acc.flat != nil {
				if replaced := 2 * probeBefore; 4*len(acc.flat) > 16*replaced {
					t.Fatalf("U=%d: flat table of %d B replaced a %d B probe table", universe, 4*len(acc.flat), 16*replaced)
				}
				return
			}
		}
		reserved := NewPrefixes(universe).NewAccumulator()
		reserved.Reserve(distinct)
		if reserved.flat != nil && 4*len(reserved.flat) > 16*probeSize(distinct) {
			t.Fatalf("U=%d: Reserve(%d) built a flat table of %d B against a %d B probe table",
				universe, distinct, 4*len(reserved.flat), 16*probeSize(distinct))
		}
	}
	for universe := int64(1); universe <= 5000; universe += 37 {
		for _, distinct := range []int{1, 24, 25, 100, 1000, 5000} {
			check(t, universe, distinct)
		}
	}

	form := func(universe int64, values int, reserve int) string {
		acc := NewPrefixes(universe).NewAccumulator()
		acc.Reserve(reserve)
		for v := 0; v < values; v++ {
			acc.AddStream(1 + int64(v)*universe/int64(values))
		}
		return indexForm(acc)
	}
	for _, tc := range []struct {
		name            string
		universe        int64
		values, reserve int
		want            string
	}{
		{"serve shard (1,024 of 4,096 values)", 1 << 12, 1024, 0, "flat"},
		{"serve merged verdict (all 4,096 values)", 1 << 12, 4096, 0, "flat"},
		{"game (U=2^20, n=2*10^4, reserved)", 1 << 20, 20000, 20000, "probe"},
	} {
		if got := form(tc.universe, tc.values, tc.reserve); got != tc.want {
			t.Errorf("%s: %s index, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkAccumulatorAddStreamBatch measures the serve shard's apply: a
// 1,024-element batch into an accumulator holding 1,024 of the 4,096
// values of [1, 4096] (one of four hash-routed shards), on the flat table.
func BenchmarkAccumulatorAddStreamBatch(b *testing.B) {
	const universe = 4096
	r := rng.New(3)
	acc := NewPrefixes(universe).NewAccumulator()
	xs := make([]int64, 1<<16)
	for i := range xs {
		xs[i] = 1 + 4*r.Int63n(universe/4)
	}
	acc.AddStreamBatch(xs)
	acc.Max()
	b.SetBytes(1024 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * 1024 % len(xs)
		acc.AddStreamBatch(xs[off : off+1024])
	}
}
