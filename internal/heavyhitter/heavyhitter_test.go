package heavyhitter

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

// Count returns the number of inserted elements.
func (s *SampleHH) Count() int { return s.res.Rounds() }

// Count returns the number of inserted elements.
func (mg *MisraGries) Count() int { return mg.n }

// must unwraps a constructor result whose parameters are valid by
// construction in these tests.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// zipfStream produces a skewed stream with known heavy elements.
func zipfStream(n int, r *rng.RNG) []int64 {
	z := rng.NewZipf(10000, 1.3)
	out := make([]int64, n)
	for i := range out {
		out[i] = z.Draw(r)
	}
	return out
}

func trueDensities(stream []int64) map[int64]float64 {
	counts := make(map[int64]int)
	for _, x := range stream {
		counts[x]++
	}
	out := make(map[int64]float64, len(counts))
	for x, c := range counts {
		out[x] = float64(c) / float64(len(stream))
	}
	return out
}

func feed(s Summary, stream []int64) {
	for _, x := range stream {
		s.Insert(x)
	}
}

func TestMisraGriesUndercountBound(t *testing.T) {
	r := rng.New(1)
	stream := zipfStream(50000, r)
	mg := must(NewMisraGries(99))
	feed(mg, stream)
	slack := 1.0 / float64(mg.M+1)
	for x, d := range trueDensities(stream) {
		est := mg.EstimateDensity(x)
		if est > d+1e-12 {
			t.Fatalf("MG overestimated %d: %v > %v", x, est, d)
		}
		if est < d-slack-1e-12 {
			t.Fatalf("MG underestimated %d beyond n/(M+1): %v < %v - %v", x, est, d, slack)
		}
	}
	if mg.Size() > mg.M {
		t.Fatalf("MG used %d counters, limit %d", mg.Size(), mg.M)
	}
}

func TestSpaceSavingOvercountBound(t *testing.T) {
	r := rng.New(2)
	stream := zipfStream(50000, r)
	ss := must(NewSpaceSaving(100))
	feed(ss, stream)
	slack := 1.0 / float64(ss.M)
	dens := trueDensities(stream)
	for x := range ss.counts {
		est := ss.EstimateDensity(x)
		d := dens[x]
		if est < d-1e-12 {
			t.Fatalf("SS underestimated tracked %d: %v < %v", x, est, d)
		}
		if est > d+slack+1e-12 {
			t.Fatalf("SS overestimated %d beyond n/M: %v > %v + %v", x, est, d, slack)
		}
	}
	if ss.Size() > ss.M {
		t.Fatalf("SS used %d counters, limit %d", ss.Size(), ss.M)
	}
}

func TestAllSummariesSatisfyContractOnStaticStream(t *testing.T) {
	const n = 50000
	alpha, eps := 0.05, 0.03
	r := rng.New(3)
	stream := zipfStream(n, r)
	m := int(math.Ceil(3/eps)) + 1
	summaries := []Summary{
		must(NewSampleHH(8000, eps, r.Split())),
		must(NewMisraGries(m)),
		must(NewSpaceSaving(m)),
	}
	for _, s := range summaries {
		feed(s, stream)
		ev := Evaluate(stream, s.Report(alpha), alpha, eps)
		if !ev.Correct() {
			t.Fatalf("%s violated contract: %+v", s.Name(), ev)
		}
		if ev.TrueHeavy == 0 {
			t.Fatal("degenerate test: no heavy elements")
		}
	}
}

func TestSampleHHReportsObviousHeavy(t *testing.T) {
	r := rng.New(4)
	s := must(NewSampleHH(1000, 0.1, r.Split()))
	const n = 20000
	stream := make([]int64, n)
	for i := range stream {
		if i%2 == 0 {
			stream[i] = 7 // density 0.5
		} else {
			stream[i] = 1 + r.Int63n(100000)
		}
	}
	feed(s, stream)
	rep := s.Report(0.3)
	found := false
	for _, x := range rep {
		if x == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("element with density 0.5 not reported: %v", rep)
	}
}

// TestSampleHHMatchesReservoir: the summary is internal/sampler's
// Algorithm R plus density arithmetic. Fed the same stream and seed as a
// bare reservoir, it reports from the same sample and leaves its RNG in the
// same state.
func TestSampleHHMatchesReservoir(t *testing.T) {
	r := rng.New(41)
	stream := make([]int64, 4000)
	for i := range stream {
		if r.Bernoulli(0.3) {
			stream[i] = 7
		} else {
			stream[i] = 1 + r.Int63n(1<<10)
		}
	}
	const alpha, eps = 0.2, 0.1
	for _, k := range []int{1, 64, 5000} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			sr, rr := rng.New(42), rng.New(42)
			hh := must(NewSampleHH(k, eps, sr))
			ref := sampler.NewReservoir[int64](k)
			for _, x := range stream {
				hh.Insert(x)
				ref.Offer(x, rr)
			}
			sample := ref.View()
			if hh.Count() != len(stream) || hh.Size() != len(sample) {
				t.Fatalf("count %d size %d, want %d and %d", hh.Count(), hh.Size(), len(stream), len(sample))
			}
			counts := map[int64]int{}
			for _, x := range sample {
				counts[x]++
			}
			var want []int64
			for x, c := range counts {
				if float64(c)/float64(len(sample)) >= alpha-eps/3 {
					want = append(want, x)
				}
			}
			slices.Sort(want)
			if got := hh.Report(alpha); !slices.Equal(got, want) {
				t.Fatalf("report %v, reservoir gives %v", got, want)
			}
			if got, d := hh.EstimateDensity(7), float64(counts[7])/float64(len(sample)); got != d {
				t.Fatalf("density of 7 = %v, reservoir gives %v", got, d)
			}
			if sr.Uint64() != rr.Uint64() {
				t.Fatal("summary and reservoir consumed different numbers of draws")
			}
		})
	}
}

func TestSampleHHEmpty(t *testing.T) {
	r := rng.New(5)
	s := must(NewSampleHH(10, 0.1, r))
	if s.Report(0.5) != nil {
		t.Fatal("empty report should be nil")
	}
	if s.EstimateDensity(1) != 0 {
		t.Fatal("empty density should be 0")
	}
}

func TestSampleHHValidation(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{errOf(NewSampleHH(0, 0.1, rng.New(1))), ErrBadMemory},
		{errOf(NewSampleHH(5, 0, rng.New(1))), ErrBadEps},
		{errOf(NewSampleHH(5, 1, rng.New(1))), ErrBadEps},
		{errOf(NewSampleHH(5, 0.1, nil)), ErrNilRNG},
	}
	for i, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Fatalf("case %d: err = %v, want %v", i, c.err, c.want)
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

func TestMGSSValidation(t *testing.T) {
	if err := errOf(NewMisraGries(0)); !errors.Is(err, ErrBadMemory) {
		t.Fatalf("NewMisraGries(0) err = %v, want ErrBadMemory", err)
	}
	if err := errOf(NewSpaceSaving(0)); !errors.Is(err, ErrBadMemory) {
		t.Fatalf("NewSpaceSaving(0) err = %v, want ErrBadMemory", err)
	}
}

func TestReportsSortedAndDeduped(t *testing.T) {
	r := rng.New(6)
	stream := zipfStream(20000, r)
	for _, s := range []Summary{
		must(NewSampleHH(2000, 0.05, r.Split())),
		must(NewMisraGries(200)),
		must(NewSpaceSaving(200)),
	} {
		feed(s, stream)
		rep := s.Report(0.02)
		for i := 1; i < len(rep); i++ {
			if rep[i] <= rep[i-1] {
				t.Fatalf("%s: report not sorted/deduped: %v", s.Name(), rep)
			}
		}
	}
}

func TestEvaluateSemantics(t *testing.T) {
	// stream: value 1 has density 0.5 (heavy), value 2 density 0.3
	// (band), value 3 density 0.2 (light) for alpha=0.4, eps=0.15.
	stream := []int64{1, 1, 1, 1, 1, 2, 2, 2, 3, 3}
	alpha, eps := 0.4, 0.15

	// Perfect report.
	ev := Evaluate(stream, []int64{1}, alpha, eps)
	if !ev.Correct() || ev.TrueHeavy != 1 {
		t.Fatalf("perfect report judged wrong: %+v", ev)
	}
	// Reporting the band element is allowed.
	ev = Evaluate(stream, []int64{1, 2}, alpha, eps)
	if !ev.Correct() {
		t.Fatalf("band element should be allowed: %+v", ev)
	}
	// Reporting the light element is a false positive.
	ev = Evaluate(stream, []int64{1, 3}, alpha, eps)
	if ev.FalsePositives != 1 || ev.Correct() {
		t.Fatalf("light element not flagged: %+v", ev)
	}
	// Missing the heavy element is a false negative.
	ev = Evaluate(stream, nil, alpha, eps)
	if ev.FalseNegatives != 1 || ev.Correct() {
		t.Fatalf("missed heavy not flagged: %+v", ev)
	}
}

func TestEvaluateBoundaryDensity(t *testing.T) {
	// Density exactly alpha counts as heavy; exactly alpha-eps counts as
	// forbidden.
	stream := []int64{1, 1, 2, 3} // d(1)=0.5, d(2)=0.25
	ev := Evaluate(stream, nil, 0.5, 0.25)
	if ev.FalseNegatives != 1 {
		t.Fatal("density == alpha must be required")
	}
	ev = Evaluate(stream, []int64{2}, 0.5, 0.25)
	if ev.FalsePositives != 1 {
		t.Fatal("density == alpha-eps must be forbidden")
	}
}

func TestMGCountersNeverNegativeProperty(t *testing.T) {
	r := rng.New(7)
	f := func(nRaw uint16, mRaw uint8) bool {
		n := int(nRaw%2000) + 1
		m := int(mRaw%20) + 1
		mg := must(NewMisraGries(m))
		for i := 0; i < n; i++ {
			mg.Insert(1 + r.Int63n(50))
		}
		for _, c := range mg.counters {
			if c <= 0 {
				return false
			}
		}
		return mg.Size() <= m && mg.Count() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSavingTotalMass(t *testing.T) {
	// Sum of SS counters >= n is NOT generally true, but sum >= n is for
	// full counters... the classical invariant is sum(counts) == n when
	// the table never evicts, and sum >= n never holds after eviction;
	// instead check sum <= n + n (loose) and that the max counter is at
	// least n/M.
	r := rng.New(8)
	const n, m = 10000, 50
	ss := must(NewSpaceSaving(m))
	for i := 0; i < n; i++ {
		ss.Insert(1 + r.Int63n(500))
	}
	maxC := 0
	total := 0
	for _, c := range ss.counts {
		total += c
		if c > maxC {
			maxC = c
		}
	}
	if maxC < n/m/2 {
		t.Fatalf("max SS counter %d suspiciously small", maxC)
	}
	if total > 2*n {
		t.Fatalf("SS counters sum to %d > 2n", total)
	}
}

func BenchmarkMisraGriesInsert(b *testing.B) {
	mg := must(NewMisraGries(100))
	r := rng.New(1)
	z := rng.NewZipf(10000, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Insert(z.Draw(r))
	}
}

func BenchmarkSpaceSavingInsert(b *testing.B) {
	ss := must(NewSpaceSaving(100))
	r := rng.New(1)
	z := rng.NewZipf(10000, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Insert(z.Draw(r))
	}
}

func BenchmarkSampleHHInsert(b *testing.B) {
	r := rng.New(1)
	s := must(NewSampleHH(1000, 0.1, r.Split()))
	z := rng.NewZipf(10000, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(z.Draw(r))
	}
}
