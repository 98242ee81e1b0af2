package setsystem

import (
	"testing"

	"robustsample/internal/rng"
)

// TestMergeFromEqualsDirectIngest splits one stream/sample pair across
// several accumulators, folds them into one, and requires the merged verdict
// to equal — bit for bit — both a single accumulator fed everything and the
// one-shot MaxDiscrepancy, for all four set systems. Interleaved Max calls
// force block placement on some sources and targets so the merge exercises
// both placed and pending slots.
func TestMergeFromEqualsDirectIngest(t *testing.T) {
	const universe = 256
	const parts = 4
	r := rng.New(31)
	for _, sys := range []SetSystem{
		NewPrefixes(universe), NewIntervals(universe),
		NewSingletons(universe), NewSuffixes(universe),
	} {
		t.Run(sys.Name(), func(t *testing.T) {
			direct := sys.NewAccumulator()
			srcs := make([]*Accumulator, parts)
			for i := range srcs {
				srcs[i] = sys.NewAccumulator()
			}
			var stream, sample []int64
			for i := 0; i < 3000; i++ {
				x := 1 + r.Int63n(universe)
				p := r.Intn(parts)
				srcs[p].AddStream(x)
				direct.AddStream(x)
				stream = append(stream, x)
				if r.Float64() < 0.2 {
					srcs[p].AddSample(x)
					direct.AddSample(x)
					sample = append(sample, x)
				}
				if i == 1000 {
					// Force block placement on part 0 and the target.
					srcs[0].Max()
					direct.Max()
				}
			}
			merged := sys.NewAccumulator()
			for _, s := range srcs {
				merged.MergeFrom(s)
			}
			got := merged.Max()
			if want := direct.Max(); got != want {
				t.Fatalf("merged %+v != direct %+v", got, want)
			}
			if want := sys.MaxDiscrepancy(stream, sample); got != want {
				t.Fatalf("merged %+v != one-shot %+v", got, want)
			}
			if merged.StreamLen() != len(stream) || merged.SampleLen() != len(sample) {
				t.Fatalf("merged sizes %d/%d, want %d/%d",
					merged.StreamLen(), merged.SampleLen(), len(stream), len(sample))
			}
		})
	}
}

// TestMergeFromIntoNonEmptyPlacedTarget merges into an accumulator that
// already holds mass in placed blocks, including overlapping values, and
// checks against direct ingest.
func TestMergeFromIntoNonEmptyPlacedTarget(t *testing.T) {
	sys := NewIntervals(1 << 20)
	r := rng.New(7)
	target := sys.NewAccumulator()
	direct := sys.NewAccumulator()
	var stream, sample []int64
	add := func(a *Accumulator, x int64, inSample bool) {
		a.AddStream(x)
		if inSample {
			a.AddSample(x)
		}
	}
	for i := 0; i < 2000; i++ {
		x := 1 + r.Int63n(1<<20)
		s := r.Float64() < 0.1
		add(target, x, s)
		add(direct, x, s)
		stream = append(stream, x)
		if s {
			sample = append(sample, x)
		}
	}
	target.Max() // place the target's blocks before merging
	src := sys.NewAccumulator()
	for i := 0; i < 2000; i++ {
		// Half overlapping values, half fresh.
		x := 1 + r.Int63n(1<<21)
		s := r.Float64() < 0.1
		add(src, x, s)
		add(direct, x, s)
		stream = append(stream, x)
		if s {
			sample = append(sample, x)
		}
	}
	target.MergeFrom(src)
	got := target.Max()
	if want := direct.Max(); got != want {
		t.Fatalf("merged %+v != direct %+v", got, want)
	}
	if want := sys.MaxDiscrepancy(stream, sample); got != want {
		t.Fatalf("merged %+v != one-shot %+v", got, want)
	}
}

// TestMergeFromSourceWithEvictions checks that slots whose sample copies
// were all removed (the reservoir eviction path) merge correctly, and that
// all-zero slots are skipped without perturbing the target.
func TestMergeFromSourceWithEvictions(t *testing.T) {
	sys := NewPrefixes(100)
	src := sys.NewAccumulator()
	src.AddStream(5)
	src.AddSample(5)
	src.AddSample(9) // sample-only slot...
	src.RemoveSample(9)
	// ...now an all-zero slot: cx == 0 and cs == 0 for value 9.
	src.RemoveSample(5)
	src.AddSample(7)
	src.AddStream(7)

	target := sys.NewAccumulator()
	target.AddStream(3)
	target.AddSample(3)
	target.MergeFrom(src)
	got := target.Max()
	want := sys.MaxDiscrepancy([]int64{3, 5, 7}, []int64{3, 7})
	if got != want {
		t.Fatalf("merged %+v != one-shot %+v", got, want)
	}
}

// TestMergeFromAfterReset reuses a merged target across games via Reset,
// mirroring how the shard coordinator's scratch engine starts each new
// stream.
func TestMergeFromAfterReset(t *testing.T) {
	sys := NewSuffixes(512)
	target := sys.NewAccumulator()
	a := sys.NewAccumulator()
	b := sys.NewAccumulator()
	r := rng.New(13)
	for game := 0; game < 5; game++ {
		a.Reset()
		b.Reset()
		target.Reset()
		var stream, sample []int64
		for i := 0; i < 800; i++ {
			x := 1 + r.Int63n(512)
			dst := a
			if i%2 == 1 {
				dst = b
			}
			dst.AddStream(x)
			stream = append(stream, x)
			if x%5 == 0 {
				dst.AddSample(x)
				sample = append(sample, x)
			}
		}
		target.MergeFrom(a)
		target.MergeFrom(b)
		got := target.Max()
		if want := sys.MaxDiscrepancy(stream, sample); got != want {
			t.Fatalf("game %d: merged %+v != one-shot %+v", game, got, want)
		}
	}
}

func TestMergeFromValidation(t *testing.T) {
	p := NewPrefixes(10)
	a := p.NewAccumulator()
	for name, f := range map[string]func(){ //robust:nondet subtest table; each case is independent of order

		"nil source":        func() { a.MergeFrom(nil) },
		"aliased source":    func() { a.MergeFrom(a) },
		"mode mismatch":     func() { a.MergeFrom(NewIntervals(10).NewAccumulator()) },
		"universe mismatch": func() { a.MergeFrom(NewPrefixes(11).NewAccumulator()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestCopyFromMatchesSource pins the read-barrier copy hook: after
// CopyFrom, the copy's verdict is bit-identical to the source's, the
// source is untouched, and the copy then evolves independently.
func TestCopyFromMatchesSource(t *testing.T) {
	r := rng.New(55)
	for _, sys := range []SetSystem{NewPrefixes(64), NewIntervals(64), NewSingletons(64), NewSuffixes(64)} {
		src := sys.NewAccumulator()
		dst := sys.NewAccumulator()
		for i := 0; i < 500; i++ {
			x := 1 + r.Int63n(64)
			src.AddStream(x)
			if i%3 == 0 {
				src.AddSample(x)
			}
		}
		// A reused destination must be fully overwritten.
		dst.AddStream(7)
		dst.AddSample(7)
		dst.CopyFrom(src)
		want := src.Max()
		if got := dst.Max(); got != want {
			t.Fatalf("%T: copy verdict %v, source %v", sys, got, want)
		}
		if got := src.Max(); got != want {
			t.Fatalf("%T: CopyFrom perturbed the source: %v vs %v", sys, got, want)
		}
		// Independent evolution: mutating the copy leaves the source alone.
		dst.AddStream(1)
		if got := src.Max(); got != want {
			t.Fatalf("%T: copy mutation leaked into the source", sys)
		}
		if src.StreamLen() == dst.StreamLen() {
			t.Fatalf("%T: copy did not diverge after mutation", sys)
		}
	}
}
