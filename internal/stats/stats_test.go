package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"robustsample/internal/rng"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 3 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 3 {
		t.Fatalf("Median = %v", s.Median)
	}
	wantSD := math.Sqrt(2)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev, wantSD)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Fatalf("Quantile(1) = %v", q)
	}
	if q := Quantile(sorted, -1); q != 0 {
		t.Fatalf("Quantile(-1) = %v", q)
	}
	if q := Quantile(sorted, 2); q != 10 {
		t.Fatalf("Quantile(2) = %v", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint32) bool {
		n := int(seed%100) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonContainsPointEstimate(t *testing.T) {
	lo, hi := WilsonInterval(10, 100, 1.96)
	if lo > 0.1 || hi < 0.1 {
		t.Fatalf("interval [%v,%v] excludes 0.1", lo, hi)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("interval [%v,%v] out of [0,1]", lo, hi)
	}
}

func TestWilsonEdge(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("n=0 interval should be [0,1], got [%v,%v]", lo, hi)
	}
	lo, _ = WilsonInterval(0, 50, 1.96)
	if lo != 0 {
		t.Fatalf("k=0 lower bound %v, want 0", lo)
	}
	_, hi = WilsonInterval(50, 50, 1.96)
	if hi != 1 {
		t.Fatalf("k=n upper bound %v, want 1", hi)
	}
}

func TestWilsonProperty(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		lo, hi := WilsonInterval(k, n, 1.96)
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= p+1e-12 && hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFailureRate(t *testing.T) {
	f := FailureRate{Failures: 3, Trials: 30}
	if f.Rate() != 0.1 {
		t.Fatalf("Rate = %v", f.Rate())
	}
	if (FailureRate{}).Rate() != 0 {
		t.Fatal("empty rate should be 0")
	}
}

func TestKSIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if d := KSDistance(a, a); d != 0 {
		t.Fatalf("KS(a,a) = %v", d)
	}
}

func TestKSDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSDistance(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("KS of disjoint supports = %v, want 1", d)
	}
}

func TestKSKnownValue(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2} // F_b jumps to 1 at 2; F_a(2) = 0.5
	if d := KSDistance(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKSSymmetricAndBounded(t *testing.T) {
	r := rng.New(77)
	f := func(na, nb uint8) bool {
		a := make([]float64, int(na%40)+1)
		b := make([]float64, int(nb%40)+1)
		for i := range a {
			a[i] = r.Float64()
		}
		for i := range b {
			b[i] = r.Float64()
		}
		d1 := KSDistance(a, b)
		d2 := KSDistance(b, a)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKSEmpty(t *testing.T) {
	if d := KSDistance(nil, nil); d != 0 {
		t.Fatalf("KS(empty,empty) = %v", d)
	}
	if d := KSDistance(nil, []float64{1}); d != 1 {
		t.Fatalf("KS(empty,x) = %v", d)
	}
}

func TestKSInt64MatchesFloat(t *testing.T) {
	a := []int64{1, 5, 9}
	b := []int64{1, 5, 5}
	af := []float64{1, 5, 9}
	bf := []float64{1, 5, 5}
	if KSDistanceInt64(a, b) != KSDistance(af, bf) {
		t.Fatal("int64 KS differs from float KS")
	}
}

func TestMeanMax(t *testing.T) {
	if Mean([]float64{1, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
	if MaxFloat([]float64{1, 9, 3}) != 9 {
		t.Fatal("MaxFloat wrong")
	}
}

func BenchmarkKSDistance(b *testing.B) {
	r := rng.New(1)
	a := make([]float64, 10000)
	c := make([]float64, 1000)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range c {
		c[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSDistance(a, c)
	}
}

func BenchmarkSummarize(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}
