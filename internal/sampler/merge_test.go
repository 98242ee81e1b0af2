package sampler

import (
	"math"
	"slices"
	"testing"

	"robustsample/internal/rng"
)

func TestMergeSamplesUniformComposition(t *testing.T) {
	// Population A = {0..9} (fully sampled), population B = {10..19}
	// (fully sampled). A merged 10-subset must include each element with
	// probability exactly 1/2.
	const trials = 40000
	root := rng.New(1)
	counts := make([]int, 20)
	a := make([]int, 10)
	b := make([]int, 10)
	for i := range a {
		a[i] = i
		b[i] = i + 10
	}
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		out := MergeSamples(a, 10, b, 10, 10, r)
		if len(out) != 10 {
			t.Fatalf("merge size %d", len(out))
		}
		for _, v := range out {
			counts[v]++
		}
	}
	want := float64(trials) / 2
	sd := math.Sqrt(want / 2)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Fatalf("element %d included %d times, want ~%v", v, c, want)
		}
	}
}

func TestMergeSamplesProportionalToPopulations(t *testing.T) {
	// Population A has nA = 1000 represented by 100 sampled elements;
	// population B has nB = 500 with 100 sampled. A merged element comes
	// from A with probability nA/(nA+nB) = 2/3.
	const trials = 30000
	root := rng.New(2)
	fromA := 0
	a := make([]int, 100)
	b := make([]int, 100)
	for i := range a {
		a[i] = 1 // marker A
		b[i] = 2 // marker B
	}
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		out := MergeSamples(a, 1000, b, 500, 1, r)
		if out[0] == 1 {
			fromA++
		}
	}
	got := float64(fromA) / trials
	if math.Abs(got-2.0/3) > 0.01 {
		t.Fatalf("P[from A] = %v, want 2/3", got)
	}
}

func TestMergeSamplesNoDuplicateConsumption(t *testing.T) {
	r := rng.New(3)
	a := []int{1, 2, 3}
	b := []int{4, 5}
	out := MergeSamples(a, 3, b, 2, 5, r)
	seen := map[int]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("element %d drawn twice", v)
		}
		seen[v] = true
	}
	if len(out) != 5 {
		t.Fatalf("size %d", len(out))
	}
}

func TestMergeSamplesClampsToPopulation(t *testing.T) {
	r := rng.New(4)
	out := MergeSamples([]int{1}, 1, []int{2}, 1, 10, r)
	if len(out) != 2 {
		t.Fatalf("should clamp to total population, got %d", len(out))
	}
}

func TestMergeSamplesDoesNotMutateInputs(t *testing.T) {
	r := rng.New(5)
	a := []int{1, 2, 3}
	b := []int{4, 5, 6}
	MergeSamples(a, 3, b, 3, 4, r)
	if a[0] != 1 || a[1] != 2 || a[2] != 3 || b[0] != 4 {
		t.Fatal("inputs mutated")
	}
}

func TestMergeSamplesValidation(t *testing.T) {
	r := rng.New(6)
	for _, f := range []func(){
		func() { MergeSamples([]int{1, 2}, 1, nil, 0, 1, r) },
		func() { MergeSamples([]int{1}, 1, []int{2}, 1, -1, r) },
		func() { MergeSamples([]int{1}, 100, []int{2}, 100, 50, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMergeReservoirsEndToEnd(t *testing.T) {
	// Two reservoirs over disjoint streams; the merged sample must be a
	// near-uniform sample of the union. Check inclusion balance of the
	// two halves.
	const nA, nB, k = 3000, 1000, 60
	const trials = 3000
	root := rng.New(7)
	fromA := 0
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		ra := NewReservoir[int](200)
		rb := NewReservoir[int](200)
		for i := 0; i < nA; i++ {
			ra.Offer(i, r)
		}
		for i := 0; i < nB; i++ {
			rb.Offer(nA+i, r)
		}
		merged := MergeSamples(ra.View(), ra.Rounds(), rb.View(), rb.Rounds(), k, r)
		if len(merged) != k {
			t.Fatalf("merged size %d", len(merged))
		}
		for _, v := range merged {
			if v < nA {
				fromA++
			}
		}
	}
	got := float64(fromA) / float64(trials*k)
	want := float64(nA) / (nA + nB)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("fraction from A = %v, want %v", got, want)
	}
}

func BenchmarkMergeReservoirs(b *testing.B) {
	r := rng.New(1)
	ra := NewReservoir[int64](1000)
	rb := NewReservoir[int64](1000)
	for i := int64(0); i < 50000; i++ {
		ra.Offer(i, r)
		rb.Offer(i+50000, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSamples(ra.View(), ra.Rounds(), rb.View(), rb.Rounds(), 500, r)
	}
}

func TestMergeSamplesKZero(t *testing.T) {
	r := rng.New(8)
	out := MergeSamples([]int{1, 2}, 5, []int{3}, 4, 0, r)
	if len(out) != 0 {
		t.Fatalf("k=0 should yield an empty sample, got %v", out)
	}
	if out == nil {
		t.Fatal("k=0 should yield an empty non-nil sample")
	}
}

func TestMergeSamplesOneSideEmpty(t *testing.T) {
	// An empty side with a zero population contributes nothing; the merge
	// must reduce to a uniform subsample of the other side.
	root := rng.New(9)
	const trials = 20000
	counts := make([]int, 4)
	a := []int{0, 1, 2, 3}
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		out := MergeSamples(a, 4, nil, 0, 2, r)
		if len(out) != 2 {
			t.Fatalf("size %d, want 2", len(out))
		}
		if out[0] == out[1] {
			t.Fatalf("duplicate element %d", out[0])
		}
		for _, v := range out {
			counts[v]++
		}
	}
	want := float64(trials) / 2
	sd := math.Sqrt(want / 2)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Fatalf("element %d included %d times, want ~%v", v, c, want)
		}
	}
	// Symmetric: empty side first.
	out := MergeSamples(nil, 0, a, 4, 3, rng.New(10))
	if len(out) != 3 {
		t.Fatalf("size %d, want 3", len(out))
	}
}

func TestMergeSamplesKEqualsUnionSize(t *testing.T) {
	// k equal to the full union: every sampled element must appear
	// exactly once, regardless of the interleaving order.
	r := rng.New(11)
	a := []int{1, 2, 3}
	b := []int{4, 5, 6, 7}
	out := MergeSamples(a, 3, b, 4, 7, r)
	if len(out) != 7 {
		t.Fatalf("size %d, want 7", len(out))
	}
	seen := map[int]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("element %d drawn twice", v)
		}
		seen[v] = true
	}
	for v := 1; v <= 7; v++ {
		if !seen[v] {
			t.Fatalf("element %d missing from full-union merge", v)
		}
	}
}

func TestMergeSamplesPopulationEqualsSample(t *testing.T) {
	// Fully-observed populations (nA == len(sampleA), nB == len(sampleB)):
	// the merge is then an exact uniform k-subset of the union, so each
	// element's inclusion probability is k / (nA + nB) even when the sides
	// are unbalanced.
	root := rng.New(12)
	const trials = 30000
	a := []int{0, 1, 2, 3, 4, 5}
	b := []int{6, 7}
	counts := make([]int, 8)
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		for _, v := range MergeSamples(a, 6, b, 2, 4, r) {
			counts[v]++
		}
	}
	want := float64(trials) / 2 // k/(nA+nB) = 4/8
	sd := math.Sqrt(want / 2)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Fatalf("element %d included %d times, want ~%v", v, c, want)
		}
	}
}

// TestMergerMatchesMergeSamples pins Merger.Merge to MergeSamples: on
// random inputs, including k = 0, empty sides and a fold that passes the
// previous result back in as sampleA, both return the same sample and
// leave their RNGs in the same state.
func TestMergerMatchesMergeSamples(t *testing.T) {
	draw := rng.New(13)
	side := func() ([]int64, int) {
		n := draw.Intn(12)
		s := make([]int64, n)
		for i := range s {
			s[i] = draw.Int63n(1000)
		}
		if n == 0 && draw.Intn(2) == 0 {
			s = nil
		}
		return s, n + draw.Intn(50)
	}
	check := func(got, want []int64, rg, rw *rng.RNG) {
		t.Helper()
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Merger.Merge = %v, MergeSamples = %v", got, want)
		}
		gh, gl := rg.State()
		wh, wl := rw.State()
		if gh != wh || gl != wl {
			t.Fatal("Merger.Merge and MergeSamples left their RNGs in different states")
		}
	}
	var m Merger[int64]
	for trial := 0; trial < 300; trial++ {
		a, nA := side()
		b, nB := side()
		k := draw.Intn(len(a) + len(b) + 1)
		if trial%10 == 0 {
			k = 0
		}
		rg, rw := rng.New(uint64(trial)), rng.New(uint64(trial))
		check(m.Merge(a, nA, b, nB, k, rg), MergeSamples(a, nA, b, nB, k, rw), rg, rw)
	}
	for trial := 0; trial < 20; trial++ {
		rg, rw := rng.New(uint64(trial)), rng.New(uint64(trial))
		var got, want []int64
		n := 0
		for step := 0; step < 10; step++ {
			b, nB := side()
			k := min(8, len(got)+len(b))
			got = m.Merge(got, n, b, nB, k, rg)
			want = MergeSamples(want, n, b, nB, k, rw)
			n += nB
			check(got, want, rg, rw)
		}
	}
}
