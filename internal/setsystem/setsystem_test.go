package setsystem

import (
	"math"
	"testing"
	"testing/quick"

	"robustsample/internal/rng"
)

func TestPrefixesBasics(t *testing.T) {
	p := NewPrefixes(100)
	if p.Name() != "prefixes" {
		t.Fatal("name")
	}
	if p.UniverseSize() != 100 {
		t.Fatal("universe size")
	}
	if math.Abs(p.LogCardinality()-math.Log(100)) > 1e-12 {
		t.Fatal("log cardinality")
	}
}

func TestUniverseSizes(t *testing.T) {
	for _, sys := range []SetSystem{NewPrefixes(10), NewIntervals(10), NewSingletons(10), NewSuffixes(10)} {
		t.Run(sys.Name(), func(t *testing.T) {
			if sys.UniverseSize() != 10 {
				t.Fatalf("universe size %d, want 10", sys.UniverseSize())
			}
		})
	}
}

func TestIntervalsBasics(t *testing.T) {
	iv := NewIntervals(10)
	want := math.Log(10 * 11 / 2)
	if math.Abs(iv.LogCardinality()-want) > 1e-12 {
		t.Fatalf("log cardinality = %v, want %v", iv.LogCardinality(), want)
	}
}

func TestNewPanicsOnBadUniverse(t *testing.T) {
	for _, f := range []func(){
		func() { NewPrefixes(0) },
		func() { NewIntervals(0) },
		func() { NewSingletons(-1) },
		func() { NewSuffixes(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for empty universe")
				}
			}()
			f()
		}()
	}
}

func TestPerfectSampleZeroError(t *testing.T) {
	stream := []int64{1, 2, 3, 4, 5, 6}
	for _, sys := range []SetSystem{NewPrefixes(10), NewIntervals(10), NewSingletons(10), NewSuffixes(10)} {
		d := sys.MaxDiscrepancy(stream, stream)
		if d.Err != 0 {
			t.Fatalf("%s: identical sample has error %v", sys.Name(), d.Err)
		}
	}
}

func TestEmptySampleErrorOne(t *testing.T) {
	stream := []int64{1, 2, 3}
	for _, sys := range []SetSystem{NewPrefixes(10), NewIntervals(10), NewSuffixes(10)} {
		d := sys.MaxDiscrepancy(stream, nil)
		if d.Err != 1 {
			t.Fatalf("%s: empty sample error %v, want 1", sys.Name(), d.Err)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	for _, sys := range []SetSystem{NewPrefixes(10), NewIntervals(10), NewSingletons(10), NewSuffixes(10)} {
		d := sys.MaxDiscrepancy(nil, []int64{1})
		if d.Err != 0 {
			t.Fatalf("%s: empty stream should yield 0, got %v", sys.Name(), d.Err)
		}
	}
}

func TestPrefixKnownValue(t *testing.T) {
	// Stream 1..4 uniformly; sample = {1, 2}. F_S(2)=1, F_X(2)=0.5.
	stream := []int64{1, 2, 3, 4}
	sample := []int64{1, 2}
	d := NewPrefixes(4).MaxDiscrepancy(stream, sample)
	if math.Abs(d.Err-0.5) > 1e-12 {
		t.Fatalf("prefix error = %v, want 0.5", d.Err)
	}
	if d.Hi != 2 {
		t.Fatalf("witness prefix [1,%d], want [1,2]", d.Hi)
	}
}

func TestIntervalCatchesMiddleGap(t *testing.T) {
	// Sample misses the middle; the interval system must see it even
	// though the prefix error is smaller.
	stream := []int64{1, 2, 5, 6, 9, 10}
	sample := []int64{1, 10}
	iv := NewIntervals(10).MaxDiscrepancy(stream, sample)
	// Interval [5,6]: density 2/6 in stream, 0 in sample.
	if iv.Err < 1.0/3-1e-12 {
		t.Fatalf("interval error %v should be at least 1/3", iv.Err)
	}
}

func TestIntervalWitnessAchievesError(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(40)
		s := 1 + r.Intn(10)
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(20)
		}
		sample := make([]int64, s)
		for i := range sample {
			sample[i] = 1 + r.Int63n(20)
		}
		d := NewIntervals(20).MaxDiscrepancy(stream, sample)
		got := math.Abs(Density(stream, d.Lo, d.Hi) - Density(sample, d.Lo, d.Hi))
		if math.Abs(got-d.Err) > 1e-9 {
			t.Fatalf("witness [%d,%d] achieves %v, reported %v (stream=%v sample=%v)",
				d.Lo, d.Hi, got, d.Err, stream, sample)
		}
	}
}

func TestPrefixWitnessAchievesError(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(40)
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(15)
		}
		sample := stream[:1+r.Intn(n)]
		d := NewPrefixes(15).MaxDiscrepancy(stream, sample)
		got := math.Abs(Density(stream, 1, d.Hi) - Density(sample, 1, d.Hi))
		if math.Abs(got-d.Err) > 1e-9 {
			t.Fatalf("witness [1,%d] achieves %v, reported %v", d.Hi, got, d.Err)
		}
	}
}

func TestIntervalsMatchBruteForce(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(25)
		s := 1 + r.Intn(8)
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(12)
		}
		sample := make([]int64, s)
		for i := range sample {
			sample[i] = 1 + r.Int63n(12)
		}
		fast := NewIntervals(12).MaxDiscrepancy(stream, sample)
		brute := BruteMaxDiscrepancy(12, stream, sample)
		if math.Abs(fast.Err-brute.Err) > 1e-9 {
			t.Fatalf("fast %v != brute %v (stream=%v sample=%v)",
				fast.Err, brute.Err, stream, sample)
		}
	}
}

func TestPrefixesMatchBruteForce(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(25)
		s := 1 + r.Intn(8)
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(12)
		}
		sample := make([]int64, s)
		for i := range sample {
			sample[i] = 1 + r.Int63n(12)
		}
		fast := NewPrefixes(12).MaxDiscrepancy(stream, sample)
		brute := BrutePrefixDiscrepancy(12, stream, sample)
		if math.Abs(fast.Err-brute.Err) > 1e-9 {
			t.Fatalf("fast %v != brute %v (stream=%v sample=%v)",
				fast.Err, brute.Err, stream, sample)
		}
	}
}

func TestSuffixEqualsPrefixError(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(30)
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(9)
		}
		sample := stream[:1+r.Intn(n)]
		pre := NewPrefixes(9).MaxDiscrepancy(stream, sample)
		suf := NewSuffixes(9).MaxDiscrepancy(stream, sample)
		if math.Abs(pre.Err-suf.Err) > 1e-12 {
			t.Fatalf("suffix err %v != prefix err %v", suf.Err, pre.Err)
		}
	}
}

func TestSuffixWitnessAchievesError(t *testing.T) {
	r := rng.New(61)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(30)
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(9)
		}
		sample := stream[:1+r.Intn(n)]
		d := NewSuffixes(9).MaxDiscrepancy(stream, sample)
		got := math.Abs(Density(stream, d.Lo, 9) - Density(sample, d.Lo, 9))
		if math.Abs(got-d.Err) > 1e-9 {
			t.Fatalf("suffix witness [%d,9] achieves %v, reported %v", d.Lo, got, d.Err)
		}
	}
}

func TestSingletonsKnownValue(t *testing.T) {
	stream := []int64{1, 1, 1, 2} // freq(1)=3/4
	sample := []int64{2}          // freq(1)=0
	d := NewSingletons(5).MaxDiscrepancy(stream, sample)
	if math.Abs(d.Err-0.75) > 1e-12 {
		t.Fatalf("singleton err %v, want 0.75", d.Err)
	}
	if d.Lo != 1 || d.Hi != 1 {
		t.Fatalf("witness %v, want {1}", d)
	}
}

func TestSingletonsSampleOnlyValue(t *testing.T) {
	stream := []int64{1, 2, 3, 4}
	sample := []int64{9, 9} // 9 not in stream: density 1 in sample, 0 in stream
	d := NewSingletons(10).MaxDiscrepancy(stream, sample)
	if d.Err != 1 || d.Lo != 9 {
		t.Fatalf("got %v, want err 1 at {9}", d)
	}
}

func TestSingletonsEmptySample(t *testing.T) {
	stream := []int64{7, 7, 8}
	d := NewSingletons(10).MaxDiscrepancy(stream, nil)
	if math.Abs(d.Err-2.0/3) > 1e-12 || d.Lo != 7 {
		t.Fatalf("got %v, want 2/3 at {7}", d)
	}
}

func TestDiscrepancyBounds(t *testing.T) {
	r := rng.New(777)
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%30) + 1
		s := int(sRaw%10) + 1
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(16)
		}
		sample := make([]int64, s)
		for i := range sample {
			sample[i] = 1 + r.Int63n(16)
		}
		for _, sys := range []SetSystem{NewPrefixes(16), NewIntervals(16), NewSingletons(16), NewSuffixes(16)} {
			e := sys.MaxDiscrepancy(stream, sample).Err
			if e < 0 || e > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalDominatesPrefix(t *testing.T) {
	// Every prefix is an interval, so interval discrepancy >= prefix.
	r := rng.New(888)
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%30) + 1
		s := int(sRaw%10) + 1
		stream := make([]int64, n)
		for i := range stream {
			stream[i] = 1 + r.Int63n(16)
		}
		sample := make([]int64, s)
		for i := range sample {
			sample[i] = 1 + r.Int63n(16)
		}
		pre := NewPrefixes(16).MaxDiscrepancy(stream, sample).Err
		ivl := NewIntervals(16).MaxDiscrepancy(stream, sample).Err
		return ivl >= pre-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationInvariance(t *testing.T) {
	// Densities ignore order, so discrepancy must be permutation-invariant.
	r := rng.New(999)
	stream := make([]int64, 50)
	for i := range stream {
		stream[i] = 1 + r.Int63n(20)
	}
	sample := stream[:12]
	for _, sys := range []SetSystem{NewPrefixes(20), NewIntervals(20), NewSingletons(20)} {
		want := sys.MaxDiscrepancy(stream, sample).Err
		shuffled := append([]int64(nil), stream...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := sys.MaxDiscrepancy(shuffled, sample).Err
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s not permutation invariant: %v vs %v", sys.Name(), got, want)
		}
	}
}

func TestDensity(t *testing.T) {
	seq := []int64{1, 2, 3, 4}
	if Density(seq, 2, 3) != 0.5 {
		t.Fatal("density wrong")
	}
	if Density(nil, 1, 2) != 0 {
		t.Fatal("empty density should be 0")
	}
	if Density(seq, 5, 9) != 0 {
		t.Fatal("out-of-range density should be 0")
	}
}

func TestDoesNotMutateInputs(t *testing.T) {
	stream := []int64{5, 3, 1}
	sample := []int64{4, 2}
	NewIntervals(5).MaxDiscrepancy(stream, sample)
	if stream[0] != 5 || stream[1] != 3 || stream[2] != 1 {
		t.Fatalf("stream mutated: %v", stream)
	}
	if sample[0] != 4 || sample[1] != 2 {
		t.Fatalf("sample mutated: %v", sample)
	}
}

func TestDiscrepancyString(t *testing.T) {
	s := Discrepancy{Err: 0.25, Lo: 1, Hi: 7}.String()
	if s == "" {
		t.Fatal("empty string")
	}
}

func BenchmarkIntervalDiscrepancy(b *testing.B) {
	r := rng.New(1)
	stream := make([]int64, 100000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
	}
	sample := stream[:1000]
	sys := NewIntervals(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.MaxDiscrepancy(stream, sample)
	}
}

func BenchmarkPrefixDiscrepancy(b *testing.B) {
	r := rng.New(1)
	stream := make([]int64, 100000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
	}
	sample := stream[:1000]
	sys := NewPrefixes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.MaxDiscrepancy(stream, sample)
	}
}

func BenchmarkSingletonDiscrepancy(b *testing.B) {
	r := rng.New(1)
	stream := make([]int64, 100000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1000)
	}
	sample := stream[:1000]
	sys := NewSingletons(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.MaxDiscrepancy(stream, sample)
	}
}
