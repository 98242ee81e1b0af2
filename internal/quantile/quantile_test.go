package quantile

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"testing/quick"
)

// Count returns the number of inserted elements.
func (e *ExactRanker) Count() int { return len(e.values) }

// Count returns the number of inserted elements.
func (s *SampleSketch) Count() int { return s.res.Rounds() }

// Count returns the number of inserted elements.
func (g *GK) Count() int { return g.n }

// InvariantHolds verifies g + delta <= floor(2 eps n) + 1 for every tuple
// and that values are sorted; tests call it after adversarial insertion
// orders. The +1 slack accommodates the boundary tuples inserted when n was
// smaller.
func (g *GK) InvariantHolds() bool {
	cap := g.capacity() + 1
	for i, t := range g.tuples {
		if t.g+t.delta > cap && i != 0 && i != len(g.tuples)-1 {
			return false
		}
		if i > 0 && g.tuples[i-1].v > t.v {
			return false
		}
	}
	return true
}

// Count returns the number of inserted elements.
func (s *KLL) Count() int { return s.n }

// Levels returns the number of compactor levels currently allocated.
func (s *KLL) Levels() int { return len(s.levels) }

// WeightConserved checks that the total weighted count equals n; compaction
// must preserve mass. Tests call it after adversarial insertions.
func (s *KLL) WeightConserved() bool {
	total := 0.0
	weight := 1.0
	for _, level := range s.levels {
		total += weight * float64(len(level))
		weight *= 2
	}
	// Compaction of an odd-sized buffer drops at most one element of
	// that level's weight; allow the cumulative slack.
	slack := weight // generous: sum of one element per level
	return math.Abs(total-float64(s.n)) <= slack
}

func uniformStream(n int, universe int64, r *rng.RNG) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + r.Int63n(universe)
	}
	return out
}

func TestExactRankerGroundTruth(t *testing.T) {
	e := NewExact()
	for _, v := range []int64{5, 1, 3, 3, 9} {
		e.Insert(v)
	}
	cases := []struct {
		x    int64
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1}, {3, 3}, {5, 4}, {9, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := e.Rank(c.x); got != c.want {
			t.Fatalf("Rank(%d) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Quantile(0.5) != 3 {
		t.Fatalf("median = %d, want 3", e.Quantile(0.5))
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 9 {
		t.Fatal("extreme quantiles wrong")
	}
	if e.Count() != 5 || e.Size() != 5 {
		t.Fatal("count/size wrong")
	}
}

func TestExactRankerEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExact().Quantile(0.5)
}

func TestExactInsertAfterQueryStillSorted(t *testing.T) {
	e := NewExact()
	e.Insert(5)
	_ = e.Rank(3)
	e.Insert(1)
	if e.Rank(1) != 1 {
		t.Fatal("rank wrong after interleaved insert/query")
	}
}

func TestReservoirSketchRankAccuracy(t *testing.T) {
	r := rng.New(1)
	sk := NewReservoirSketch(2000, r.Split())
	stream := uniformStream(20000, 1<<20, r)
	for _, x := range stream {
		sk.Insert(x)
	}
	if err := MaxRankError(sk, stream); err > 0.08 {
		t.Fatalf("reservoir sketch rank error %v too large", err)
	}
	if sk.Count() != 20000 {
		t.Fatal("count wrong")
	}
	if sk.Size() != 2000 {
		t.Fatalf("size %d, want 2000", sk.Size())
	}
}

func TestSampleSketchMedian(t *testing.T) {
	r := rng.New(3)
	sk := NewReservoirSketch(500, r.Split())
	const n = 10000
	for i := 1; i <= n; i++ {
		sk.Insert(int64(i))
	}
	med := sk.Quantile(0.5)
	if med < n/2-n/10 || med > n/2+n/10 {
		t.Fatalf("median %d too far from %d", med, n/2)
	}
}

// TestSampleSketchMatchesReservoir: the sketch is internal/sampler's
// Algorithm R plus rank arithmetic. Fed the same stream and seed as a bare
// reservoir, it answers from the same sample and leaves its RNG in the same
// state, so an experiment sharing that RNG draws the same numbers after it.
func TestSampleSketchMatchesReservoir(t *testing.T) {
	stream := uniformStream(3000, 1<<12, rng.New(31))
	for _, k := range []int{1, 64, 5000} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			sr, rr := rng.New(32), rng.New(32)
			sk := NewReservoirSketch(k, sr)
			ref := sampler.NewReservoir[int64](k)
			for _, x := range stream {
				sk.Insert(x)
				ref.Offer(x, rr)
			}
			want := ref.Sample()
			slices.Sort(want)
			if sk.Count() != len(stream) || sk.Size() != len(want) {
				t.Fatalf("count %d size %d, want %d and %d", sk.Count(), sk.Size(), len(stream), len(want))
			}
			for _, x := range []int64{0, 1 << 9, 1 << 11, 1 << 12} {
				below, _ := slices.BinarySearch(want, x+1)
				wantRank := float64(below) / float64(len(want)) * float64(len(stream))
				if got := sk.Rank(x); got != wantRank {
					t.Fatalf("Rank(%d) = %v, reservoir gives %v", x, got, wantRank)
				}
			}
			if got, med := sk.Quantile(0.5), want[max(len(want)/2-1, 0)]; got != med {
				t.Fatalf("median %d, reservoir gives %d", got, med)
			}
			if sr.Uint64() != rr.Uint64() {
				t.Fatal("sketch and reservoir consumed different numbers of draws")
			}
		})
	}
}

func TestSampleSketchEmptyQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoirSketch(5, rng.New(1)).Quantile(0.5)
}

func TestGKRankWithinEps(t *testing.T) {
	for _, order := range []string{"random", "sorted", "reverse"} {
		eps := 0.01
		g := NewGK(eps)
		r := rng.New(4)
		const n = 20000
		stream := uniformStream(n, 1<<20, r)
		switch order {
		case "sorted":
			slices.Sort(stream)
		case "reverse":
			slices.SortFunc(stream, func(a, b int64) int { return cmp.Compare(b, a) })
		}
		for _, x := range stream {
			g.Insert(x)
		}
		if err := MaxRankError(g, stream); err > eps+0.005 {
			t.Fatalf("%s order: GK rank error %v exceeds eps %v", order, err, eps)
		}
		if !g.InvariantHolds() {
			t.Fatalf("%s order: GK invariant violated", order)
		}
	}
}

func TestGKSpaceSublinear(t *testing.T) {
	eps := 0.01
	g := NewGK(eps)
	r := rng.New(5)
	const n = 50000
	for _, x := range uniformStream(n, 1<<30, r) {
		g.Insert(x)
	}
	if g.Size() > n/10 {
		t.Fatalf("GK stored %d tuples for n=%d; not compressing", g.Size(), n)
	}
	if g.Count() != n {
		t.Fatal("count wrong")
	}
}

func TestGKQuantileReasonable(t *testing.T) {
	g := NewGK(0.01)
	const n = 10000
	for i := 1; i <= n; i++ {
		g.Insert(int64(i))
	}
	med := g.Quantile(0.5)
	if med < n/2-n/20 || med > n/2+n/20 {
		t.Fatalf("GK median %d too far from %d", med, n/2)
	}
}

func TestGKValidation(t *testing.T) {
	for _, eps := range []float64{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewGK(eps)
		}()
	}
}

func TestGKEmpty(t *testing.T) {
	g := NewGK(0.1)
	if g.Rank(5) != 0 {
		t.Fatal("empty GK rank should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty quantile")
		}
	}()
	g.Quantile(0.5)
}

func TestKLLRankAccuracy(t *testing.T) {
	r := rng.New(6)
	s := NewKLL(200, r.Split())
	const n = 50000
	stream := uniformStream(n, 1<<30, r)
	for _, x := range stream {
		s.Insert(x)
	}
	if err := MaxRankError(s, stream); err > 0.05 {
		t.Fatalf("KLL rank error %v too large", err)
	}
	if !s.WeightConserved() {
		t.Fatal("KLL lost mass during compaction")
	}
}

func TestKLLSpaceSublinear(t *testing.T) {
	r := rng.New(7)
	s := NewKLL(100, r.Split())
	const n = 100000
	for _, x := range uniformStream(n, 1<<30, r) {
		s.Insert(x)
	}
	if s.Size() > 3000 {
		t.Fatalf("KLL size %d too large for k=100", s.Size())
	}
	if s.Levels() < 2 {
		t.Fatal("KLL never compacted")
	}
	if s.Count() != n {
		t.Fatal("count wrong")
	}
}

func TestKLLSortedInsertion(t *testing.T) {
	r := rng.New(8)
	s := NewKLL(200, r)
	const n = 30000
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = int64(i + 1)
	}
	for _, x := range stream {
		s.Insert(x)
	}
	if err := MaxRankError(s, stream); err > 0.05 {
		t.Fatalf("KLL sorted-order rank error %v", err)
	}
}

func TestKLLQuantileMonotone(t *testing.T) {
	r := rng.New(9)
	s := NewKLL(100, r.Split())
	for _, x := range uniformStream(20000, 1<<20, r) {
		s.Insert(x)
	}
	prev := int64(math.MinInt64)
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestKLLValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewKLL(3, rng.New(1)) },
		func() { NewKLL(10, nil) },
		func() { NewKLL(10, rng.New(1)).Quantile(0.5) },
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

func TestMaxRankErrorEmptyStream(t *testing.T) {
	if MaxRankError(NewExact(), nil) != 0 {
		t.Fatal("empty stream error should be 0")
	}
}

func TestMaxRankErrorExactIsZero(t *testing.T) {
	r := rng.New(10)
	f := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		e := NewExact()
		stream := uniformStream(n, 100, r)
		for _, x := range stream {
			e.Insert(x)
		}
		return MaxRankError(e, stream) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSketchesAgreeOnDuplicateHeavyStream(t *testing.T) {
	// A stream that is 90% one value; median must be that value for
	// every sketch.
	r := rng.New(11)
	mk := []Sketch{
		NewExact(),
		NewReservoirSketch(500, r.Split()),
		NewGK(0.01),
		NewKLL(200, r.Split()),
	}
	const n = 10000
	for i := 0; i < n; i++ {
		v := int64(500)
		if i%10 == 0 {
			v = 1 + r.Int63n(1000)
		}
		for _, sk := range mk {
			sk.Insert(v)
		}
	}
	for _, sk := range mk {
		if med := sk.Quantile(0.5); med != 500 {
			t.Fatalf("%s: median %d, want 500", sk.Name(), med)
		}
	}
}

func BenchmarkGKInsert(b *testing.B) {
	g := NewGK(0.01)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Insert(r.Int63n(1 << 30))
	}
}

func BenchmarkKLLInsert(b *testing.B) {
	r := rng.New(1)
	s := NewKLL(200, r.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(r.Int63n(1 << 30))
	}
}

func BenchmarkReservoirSketchInsert(b *testing.B) {
	r := rng.New(1)
	s := NewReservoirSketch(1000, r.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(r.Int63n(1 << 30))
	}
}
