package sampler

import (
	"math"
	"testing"
	"testing/quick"

	"robustsample/internal/rng"
)

// TotalAdmitted returns the number of elements ever admitted (k' in the
// Section 5 attack analysis).
func (v *ReservoirL[T]) TotalAdmitted() int { return v.admitted }

func TestAlgorithmLCapacity(t *testing.T) {
	r := rng.New(1)
	v := NewReservoirL[int64](10)
	for i := int64(0); i < 5000; i++ {
		v.Offer(i, r)
		if v.Len() > 10 {
			t.Fatal("capacity exceeded")
		}
	}
	if v.Len() != 10 || v.Rounds() != 5000 {
		t.Fatalf("len=%d rounds=%d", v.Len(), v.Rounds())
	}
}

func TestAlgorithmLPrefixKeptWhole(t *testing.T) {
	r := rng.New(2)
	v := NewReservoirL[int64](5)
	for i := int64(1); i <= 5; i++ {
		if !v.Offer(i, r) {
			t.Fatal("fill phase must admit everything")
		}
	}
	got := SortedCopy(v.View())
	for i, x := range got {
		if x != int64(i+1) {
			t.Fatalf("prefix not stored: %v", got)
		}
	}
}

func TestAlgorithmLUniformInclusion(t *testing.T) {
	// The defining property: identical distribution to Algorithm R —
	// every element in the final sample with probability exactly k/n.
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	root := rng.New(3)
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		v := NewReservoirL[int](k)
		for i := 0; i < n; i++ {
			v.Offer(i, r)
		}
		for _, x := range v.View() {
			counts[x]++
		}
	}
	want := float64(trials) * k / n
	sd := math.Sqrt(want * (1 - float64(k)/n))
	for pos, c := range counts {
		if math.Abs(float64(c)-want) > 5*sd {
			t.Fatalf("position %d included %d times, want %v +/- %v", pos, c, want, 5*sd)
		}
	}
}

func TestAlgorithmLLongStreamInclusion(t *testing.T) {
	// Check inclusion at a longer stream where skips dominate: last and
	// first elements must both be included at rate ~k/n.
	const n, k, trials = 2000, 10, 20000
	root := rng.New(4)
	first, last := 0, 0
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		v := NewReservoirL[int](k)
		for i := 0; i < n; i++ {
			v.Offer(i, r)
		}
		for _, x := range v.View() {
			if x == 0 {
				first++
			}
			if x == n-1 {
				last++
			}
		}
	}
	want := float64(trials) * k / n
	sd := math.Sqrt(want)
	if math.Abs(float64(first)-want) > 6*sd {
		t.Fatalf("first element included %d times, want ~%v", first, want)
	}
	if math.Abs(float64(last)-want) > 6*sd {
		t.Fatalf("last element included %d times, want ~%v", last, want)
	}
}

func TestAlgorithmLMatchesAlgorithmRAdmissionCount(t *testing.T) {
	// E[k'] must match Algorithm R's k(1 + ln(n/k)) law.
	const n, k, trials = 2000, 10, 300
	root := rng.New(5)
	total := 0
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		v := NewReservoirL[int](k)
		for i := 0; i < n; i++ {
			v.Offer(i, r)
		}
		total += v.TotalAdmitted()
	}
	mean := float64(total) / trials
	predicted := float64(k) * (1 + math.Log(float64(n)/float64(k)))
	if mean < predicted*0.85 || mean > predicted*1.15 {
		t.Fatalf("mean admitted %v, Algorithm R law predicts ~%v", mean, predicted)
	}
}

func TestAlgorithmLReset(t *testing.T) {
	r := rng.New(6)
	v := NewReservoirL[int](3)
	for i := 0; i < 100; i++ {
		v.Offer(i, r)
	}
	v.Reset()
	if v.Len() != 0 || v.Rounds() != 0 || v.TotalAdmitted() != 0 {
		t.Fatal("reset failed")
	}
	// Usable after reset.
	for i := 0; i < 10; i++ {
		v.Offer(i, r)
	}
	if v.Len() != 3 {
		t.Fatal("not usable after reset")
	}
}

func TestAlgorithmLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoirL[int](0)
}

func TestAlgorithmLSampleSubsetOfStream(t *testing.T) {
	root := rng.New(7)
	f := func(nRaw uint8) bool {
		n := int(nRaw) + 1
		r := root.Split()
		v := NewReservoirL[int64](4)
		for i := 0; i < n; i++ {
			v.Offer(int64(i), r)
		}
		for _, x := range v.View() {
			if x < 0 || x >= int64(n) {
				return false
			}
		}
		return v.Len() == min(4, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmLSampleIsCopy(t *testing.T) {
	r := rng.New(8)
	v := NewReservoirL[int](1)
	v.Offer(7, r)
	s := v.Sample()
	s[0] = 99
	if v.View()[0] != 7 {
		t.Fatal("Sample aliases internal state")
	}
}

func BenchmarkAlgorithmLOffer(b *testing.B) {
	r := rng.New(1)
	s := NewReservoirL[int64](1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(int64(i), r)
	}
}
