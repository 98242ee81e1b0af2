package adversary

import (
	"math"
	"slices"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// Exhausted reports whether the working range ran out of integer room at any
// point during the game. Claim 5.1 guarantees this does not happen as long
// as |S| < 2np' and N is large enough.
func (bi *Bisection) Exhausted() bool { return bi.exhausted }

func TestBisectionSampledAreSmallest(t *testing.T) {
	// Claim 5.2: at every point, all sampled elements are smaller than
	// all non-sampled elements; hence the final Bernoulli sample is
	// exactly the |S| smallest stream elements. The int64 attack only has
	// enough precision at small n (see exact.go), so this runs at n=500.
	const n = 500
	universe := int64(1) << 62
	p := 0.005
	r := rng.New(1)
	s := sampler.NewBernoulli[int64](p)
	adv := NewBisectionBernoulli(universe, n, p)
	res := game.Run(s, adv, setsystem.NewPrefixes(universe), n, 0.5, r)

	if adv.Exhausted() {
		t.Fatal("attack exhausted the universe; N too small for this n")
	}
	if len(res.Sample) == 0 {
		t.Skip("degenerate: empty sample")
	}
	sampleSet := make(map[int64]bool, len(res.Sample))
	maxSampled := int64(0)
	for _, v := range res.Sample {
		sampleSet[v] = true
		if v > maxSampled {
			maxSampled = v
		}
	}
	for _, x := range res.Stream {
		if !sampleSet[x] && x < maxSampled {
			t.Fatalf("non-sampled element %d below max sampled %d", x, maxSampled)
		}
	}
}

func TestBisectionBreaksBernoulli(t *testing.T) {
	// Theorem 1.3(1): with small p the prefix discrepancy exceeds 1/2
	// with probability >= 1/2. Check the mean failure across trials in
	// the int64-feasible regime.
	const n = 500
	universe := int64(1) << 62
	p := 0.005
	root := rng.New(2)
	fails := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		s := sampler.NewBernoulli[int64](p)
		adv := NewBisectionBernoulli(universe, n, p)
		res := game.Run(s, adv, setsystem.NewPrefixes(universe), n, 0.5, r)
		if res.Discrepancy.Err > 0.5 {
			fails++
		}
	}
	if fails < trials/2 {
		t.Fatalf("attack broke only %d/%d trials", fails, trials)
	}
}

func TestBisectionRangeInvariant(t *testing.T) {
	// The working range never inverts and every submission lies inside.
	const n = 300
	universe := int64(1) << 62
	r := rng.New(5)
	adv := NewBisection(universe, 0.02)
	s := sampler.NewBernoulli[int64](0.02)
	res := game.Run(s, adv, setsystem.NewPrefixes(universe), n, 0.5, r)
	for _, x := range res.Stream {
		if x < 1 || x > universe {
			t.Fatalf("submission %d outside universe", x)
		}
	}
	if adv.Exhausted() {
		t.Fatal("unexpected exhaustion with huge universe")
	}
}

func TestBisectionExhaustionOnTinyUniverse(t *testing.T) {
	// With a tiny universe the attack must run out of precision and
	// report it rather than misbehave — this is the regime where
	// Theorem 1.2 kicks in.
	const n = 1000
	universe := int64(64)
	r := rng.New(6)
	adv := NewBisectionBernoulli(universe, n, 0.1)
	s := sampler.NewBernoulli[int64](0.1)
	res := game.Run(s, adv, setsystem.NewPrefixes(universe), n, 0.5, r)
	if !adv.Exhausted() {
		t.Fatal("expected exhaustion on universe of size 64")
	}
	for _, x := range res.Stream {
		if x < 1 || x > universe {
			t.Fatalf("submission %d outside universe", x)
		}
	}
}

func TestBisectionConstructorsValidate(t *testing.T) {
	for _, f := range []func(){
		func() { NewBisection(1, 0.5) },
		func() { NewBisection(10, 0) },
		func() { NewBisection(10, 1) },
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

func TestBisectionPPrimeFloors(t *testing.T) {
	n := 10000
	adv := NewBisectionBernoulli(1<<40, n, 0)
	want := math.Log(float64(n)) / float64(n)
	if math.Abs(adv.PPrime-want) > 1e-15 {
		t.Fatalf("p' = %v, want ln n / n = %v", adv.PPrime, want)
	}
	advR := NewBisectionReservoir(1<<40, 100, 1000)
	if advR.PPrime != 0.5 {
		t.Fatalf("reservoir p' should cap at 0.5, got %v", advR.PPrime)
	}
}

func TestStaticAdversariesProduceValidStreams(t *testing.T) {
	const n = 500
	universe := int64(1000)
	advs := []game.Adversary{
		NewStaticUniform(universe),
		NewStaticSorted(universe),
	}
	root := rng.New(7)
	for _, adv := range advs {
		r := root.Split()
		s := sampler.NewReservoir[int64](10)
		res := game.Run(s, adv, setsystem.NewPrefixes(universe), n, 0.5, r)
		if len(res.Stream) != n {
			t.Fatalf("%s: stream length %d", adv.Name(), len(res.Stream))
		}
		for _, x := range res.Stream {
			if x < 1 || x > universe {
				t.Fatalf("%s: value %d outside universe", adv.Name(), x)
			}
		}
	}
}

func TestStaticSortedIsSorted(t *testing.T) {
	adv := NewStaticSorted(1000)
	r := rng.New(8)
	s := sampler.NewBernoulli[int64](0)
	res := game.Run(s, adv, setsystem.NewPrefixes(1000), 100, 0.5, r)
	for i := 1; i < len(res.Stream); i++ {
		if res.Stream[i] < res.Stream[i-1] {
			t.Fatal("sorted stream not sorted")
		}
	}
	if res.Stream[0] != 1 || res.Stream[99] != 1000 {
		t.Fatalf("sweep endpoints %d..%d", res.Stream[0], res.Stream[99])
	}
}

func TestStaticRegeneratesAcrossGames(t *testing.T) {
	adv := NewStaticUniform(100)
	root := rng.New(10)
	s := sampler.NewBernoulli[int64](0)
	res1 := game.Run(s, adv, setsystem.NewPrefixes(100), 20, 0.5, root)
	res2 := game.Run(s, adv, setsystem.NewPrefixes(100), 20, 0.5, root)
	diff := false
	for i := range res1.Stream {
		if res1.Stream[i] != res2.Stream[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("static adversary replayed the same stream in a fresh game with fresh randomness")
	}
}

func TestHHInflationRespectsBudget(t *testing.T) {
	const n = 2000
	target := int64(5)
	budget := 0.05
	adv := NewHHInflation(target, 1000, 0.2, budget)
	r := rng.New(12)
	s := sampler.NewReservoir[int64](20)
	res := game.Run(s, adv, setsystem.NewSingletons(1000), n, 0.9, r)
	count := 0
	for _, x := range res.Stream {
		if x == target {
			count++
		}
	}
	if float64(count) > budget*float64(n)+1 {
		t.Fatalf("target sent %d times, budget %v", count, budget*n)
	}
}

func TestHHInflationAdaptsToSample(t *testing.T) {
	// Deterministic logic check of the strategy: it sends the target
	// exactly when the observed sample density is below the goal and the
	// budget allows, and cover traffic otherwise.
	r := rng.New(13)
	target := int64(5)
	adv := NewHHInflation(target, 1000, 0.5, 0.5)
	adv.Reset()

	// Round 1: empty sample (density 0 < goal) => target.
	obs := game.Observation{Round: 1, N: 10, Sample: nil}
	if got := adv.Next(obs, r); got != target {
		t.Fatalf("under-represented target not sent, got %d", got)
	}
	// Sample saturated with the target (density 1 >= goal) => noise.
	obs = game.Observation{Round: 2, N: 10, Sample: []int64{5, 5, 5, 5}}
	if got := adv.Next(obs, r); got == target {
		t.Fatal("over-represented target was sent again")
	}
	// Under-represented again => target, until the budget runs dry.
	obs = game.Observation{Round: 3, N: 10, Sample: []int64{1, 2, 3, 4}}
	sent := 1 // one target already sent in round 1
	for round := 3; round <= 10; round++ {
		obs.Round = round
		if adv.Next(obs, r) == target {
			sent++
		}
	}
	// Budget is 0.5 * N = 5 targets total.
	if sent != 5 {
		t.Fatalf("sent %d targets, budget allows exactly 5", sent)
	}
}

func TestHHInflationValidates(t *testing.T) {
	for _, f := range []func(){
		func() { NewHHInflation(1, 1, 0.5, 0.5) },
		func() { NewHHInflation(1, 10, 0, 0.5) },
		func() { NewHHInflation(1, 10, 0.5, 0) },
		func() { NewHHInflation(1, 10, 1.5, 0.5) },
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

func TestMedianPusherRuns(t *testing.T) {
	adv := NewMedianPusher(1 << 20)
	r := rng.New(14)
	s := sampler.NewReservoir[int64](10)
	res := game.Run(s, adv, setsystem.NewPrefixes(1<<20), 500, 0.9, r)
	for _, x := range res.Stream {
		if x < 1 || x > 1<<20 {
			t.Fatalf("value %d outside universe", x)
		}
	}
}

func TestMedianPusherValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMedianPusher(1)
}

func TestMedianOf(t *testing.T) {
	for _, c := range []struct {
		in   []int64
		want int64
	}{
		{[]int64{5, 1, 3}, 3},
		{[]int64{2, 1, 4, 3}, 3}, // even length: the upper median
		{[]int64{9}, 9},
		// Hoare's split index is not the pivot's sorted position: stopping
		// when it hits len/2 returned 15512 here.
		{[]int64{20829, 17345, 19326, 15512, 8668, 7847}, 17345},
	} {
		if got := quickselectMedian(slices.Clone(c.in)); got != c.want {
			t.Fatalf("median of %v = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestQuickselectMedianBruteForce checks the selection against a full sort
// on random inputs of every small length, over universes from a handful of
// values (heavy duplicates) to the whole int64 range.
func TestQuickselectMedianBruteForce(t *testing.T) {
	r := rng.New(99)
	for _, universe := range []int64{1, 2, 3, 10, 1000, math.MaxInt64} {
		for trial := 0; trial < 3000; trial++ {
			in := make([]int64, 1+r.Intn(70))
			for i := range in {
				in[i] = r.Int63n(universe)
				if universe == math.MaxInt64 && r.Intn(2) == 0 {
					in[i] = -in[i] - 1
				}
			}
			sorted := slices.Clone(in)
			slices.Sort(sorted)
			if got, want := quickselectMedian(slices.Clone(in)), sorted[len(sorted)/2]; got != want {
				t.Fatalf("median of %v = %d, want %d", in, got, want)
			}
		}
	}
}

// TestMedianPusherNextAllocsZero pins the steady state of both median paths
// at zero allocations per round: the mirror fed by deltas, and the
// selection fallback for observations without one.
func TestMedianPusherNextAllocsZero(t *testing.T) {
	const k = 843
	r := rng.New(5)
	sample := make([]int64, k)
	for i := range sample {
		sample[i] = 1 + r.Int63n(1<<20)
	}
	m := NewMedianPusher(1 << 20)
	m.Next(game.Observation{Round: 1, N: 10, Sample: sample}, r) // sizes the selection buffer
	if a := testing.AllocsPerRun(100, func() {
		m.Next(game.Observation{Round: 2, N: 10, Sample: sample}, r)
	}); a != 0 {
		t.Fatalf("fallback Next: %v allocs per round, want 0", a)
	}

	// Mirror path: each round replaces one slot, as a reservoir eviction
	// does, and reports that delta.
	m.Reset()
	var empty []int64
	m.Next(game.Observation{Round: 1, N: 10, Sample: empty[:0]}, r)
	m.Next(game.Observation{Round: 2, N: 10, Sample: sample, DeltaKnown: true, Added: sample}, r)
	added, removed := make([]int64, 1), make([]int64, 1)
	slot := 0
	if a := testing.AllocsPerRun(1000, func() {
		removed[0] = sample[slot]
		added[0] = 1 + r.Int63n(1<<20)
		sample[slot] = added[0]
		slot = (slot + 7) % k
		m.Next(game.Observation{Round: 3, N: 10, Sample: sample, DeltaKnown: true, Added: added, Removed: removed}, r)
	}); a != 0 {
		t.Fatalf("mirror Next: %v allocs per round, want 0", a)
	}
	want := slices.Clone(sample)
	slices.Sort(want)
	if !slices.Equal(m.sorted, want) {
		t.Fatal("mirror drifted from the sample")
	}
	if a := testing.AllocsPerRun(100, func() {
		m.Next(game.Observation{Round: 3, N: 10, Sample: sample, DeltaKnown: true}, r)
	}); a != 0 {
		t.Fatalf("unchanged-sample Next: %v allocs per round, want 0", a)
	}
}

func TestAdversaryNames(t *testing.T) {
	cases := map[string]game.Adversary{
		"bisection":      NewBisection(100, 0.5),
		"static-uniform": NewStaticUniform(10),
		"static-sorted":  NewStaticSorted(10),
		"hh-inflation":   NewHHInflation(1, 10, 0.5, 0.5),
		"median-pusher":  NewMedianPusher(10),
	}
	for want, adv := range cases {
		if adv.Name() != want {
			t.Fatalf("name %q, want %q", adv.Name(), want)
		}
	}
}

func BenchmarkBisectionGame(b *testing.B) {
	root := rng.New(1)
	universe := int64(1) << 50
	const n = 10000
	p := 0.005
	sys := setsystem.NewPrefixes(universe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := root.Split()
		s := sampler.NewBernoulli[int64](p)
		adv := NewBisectionBernoulli(universe, n, p)
		game.Run(s, adv, sys, n, 0.5, r)
	}
}

// TestMedianPusherResetDropsMirror: after Reset the pusher must not apply a
// delta to the previous game's mirror, even when the first observation
// claims one; it must answer as a fresh pusher does.
func TestMedianPusherResetDropsMirror(t *testing.T) {
	used := NewMedianPusher(100)
	r := rng.New(6)
	used.Next(game.Observation{Round: 1, N: 10}, r)
	used.Next(game.Observation{Round: 2, N: 10, Sample: []int64{1, 2}, DeltaKnown: true, Added: []int64{1, 2}}, r)
	used.Reset()
	// The sample's median is 20; the stale mirror plus this delta,
	// {1, 2, 30}, would give 2.
	obs := game.Observation{Round: 2, N: 10, Sample: []int64{10, 20, 30}, DeltaKnown: true, Added: []int64{30}}
	got := used.Next(obs, rng.New(7))
	if want := NewMedianPusher(100).Next(obs, rng.New(7)); got != want {
		t.Fatalf("after Reset: submitted %d, a fresh pusher submits %d", got, want)
	}
}

// BenchmarkMedianPusherNext times one round at the Theorem 1.2 reservoir
// size k = 843: "fallback" replays an observation without a delta (the
// selection path), "mirror" replaces one sample slot per round and reports
// that delta, as a reservoir eviction does.
func BenchmarkMedianPusherNext(b *testing.B) {
	const k = 843
	r := rng.New(3)
	sample := make([]int64, k)
	for i := range sample {
		sample[i] = 1 + r.Int63n(1<<20)
	}
	b.Run("fallback", func(b *testing.B) {
		m := NewMedianPusher(1 << 20)
		obs := game.Observation{Round: 2, N: 10, Sample: sample}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Next(obs, r)
		}
	})
	b.Run("mirror", func(b *testing.B) {
		m := NewMedianPusher(1 << 20)
		m.Next(game.Observation{Round: 1, N: 10}, r)
		m.Next(game.Observation{Round: 2, N: 10, Sample: sample, DeltaKnown: true, Added: sample}, r)
		added, removed := make([]int64, 1), make([]int64, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := i % k
			removed[0], added[0] = sample[slot], 1+r.Int63n(1<<20)
			sample[slot] = added[0]
			m.Next(game.Observation{Round: 3, N: 10, Sample: sample, DeltaKnown: true, Added: added, Removed: removed}, r)
		}
	})
}

// BenchmarkMedianPusherGame plays the continuous median-pusher game against
// a Theorem 1.2 reservoir (k = 843, n = 20,000, Theorem 1.4 checkpoints).
func BenchmarkMedianPusherGame(b *testing.B) {
	const n = 20000
	sys := setsystem.NewPrefixes(1 << 20)
	cps := game.MustCheckpoints(843, n, 0.05)
	s := sampler.NewReservoir[int64](843)
	adv := NewMedianPusher(1 << 20)
	acc := sys.NewAccumulator()
	root := rng.New(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		game.RunContinuousWith(s, adv, sys, n, 0.2, cps, root.Split(), acc)
	}
}
