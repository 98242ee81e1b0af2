package core_test

// Integration tests exercising full pipelines across modules: parameter
// selection -> adaptive game -> exact verdict, and the end-to-end shapes of
// the paper's headline claims at reduced scale. Statistical assertions use
// fixed seeds and generous slack so they are deterministic and non-flaky.

import (
	"math"
	"testing"

	"robustsample/internal/adversary"
	"robustsample/internal/core"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// TestTheorem12EndToEnd plays the full adaptive game at the Theorem 1.2
// reservoir size against every public adversary and checks the failure rate
// stays near delta.
func TestTheorem12EndToEnd(t *testing.T) {
	const n = 3000
	universe := int64(1) << 18
	p := core.Params{Eps: 0.25, Delta: 0.15, N: n}
	sys := setsystem.NewPrefixes(universe)
	k := core.ReservoirSize(p, sys.LogCardinality())

	for _, mkAdv := range []func() game.Adversary{
		func() game.Adversary { return adversary.NewStaticUniform(universe) },
		func() game.Adversary { return adversary.NewBisection(universe, math.Log(float64(n))/float64(n)) },
	} {
		est := core.EstimateRobustnessWorkers(
			func() game.Sampler { return sampler.NewReservoir[int64](k) },
			mkAdv, sys, p, 20, 0, rng.New(101),
		)
		if est.Failure.Rate() > p.Delta+0.2 {
			t.Fatalf("robust reservoir failed %v of games vs %s",
				est.Failure.Rate(), mkAdv().Name())
		}
	}
}

// TestTheorem13EndToEnd verifies the attack's exact law: the prefix error
// equals 1 - |S|/n when the sample is non-empty.
func TestTheorem13EndToEnd(t *testing.T) {
	const n = 3000
	r := rng.New(202)
	for trial := 0; trial < 10; trial++ {
		res := adversary.RunExactBisectionBernoulli(n, 0.01, r)
		if len(res.Sample) == 0 {
			continue
		}
		d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
		want := 1 - float64(len(res.Sample))/float64(n)
		if math.Abs(d.Err-want) > 1e-9 {
			t.Fatalf("attack error %v, exact law predicts %v", d.Err, want)
		}
	}
}

// TestTheorem14EndToEnd checks the continuous game at the Theorem 1.4 size:
// every checkpoint prefix must be an eps-approximation in most trials.
func TestTheorem14EndToEnd(t *testing.T) {
	const n = 2000
	universe := int64(1) << 16
	p := core.Params{Eps: 0.3, Delta: 0.15, N: n}
	sys := setsystem.NewPrefixes(universe)
	k := core.ContinuousReservoirSize(p, sys.LogCardinality())
	cps := game.MustCheckpoints(k, n, p.Eps/4)

	fails := 0
	root := rng.New(303)
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		res := game.RunContinuous(sampler.NewReservoir[int64](k), adversary.NewStaticUniform(universe),
			sys, n, p.Eps, cps, root)
		if !res.OK {
			fails++
		}
		// The trajectory must include the final round.
		last := res.PrefixErrors[len(res.PrefixErrors)-1]
		if last.Round != n {
			t.Fatalf("final round missing from trajectory")
		}
	}
	if float64(fails)/trials > p.Delta+0.25 {
		t.Fatalf("continuous robustness failed %d/%d trials", fails, trials)
	}
}

// TestCrossoverShape reproduces the E11 crossover at small scale: under the
// unbounded attack, the sample lies among the k' ~ k(1+ln(n/k)) smallest
// elements, so a reservoir with k(1+ln(n/k)) << n/2 is broken while one
// with k(1+ln(n/k)) >> n/2 is not.
func TestCrossoverShape(t *testing.T) {
	const n = 4000
	// Solve k(1+ln(n/k)) = n/2 by scan.
	crossover := 1.0
	for k := 1.0; k < n; k++ {
		if k*(1+math.Log(n/k)) >= n/2 {
			crossover = k
			break
		}
	}
	small := int(crossover / 4)
	large := int(crossover * 4)
	if large > n {
		large = n
	}
	root := rng.New(404)
	meanErr := func(k int) float64 {
		sum := 0.0
		const trials = 8
		for i := 0; i < trials; i++ {
			res := adversary.RunExactBisectionReservoir(n, k, root)
			d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
			sum += d.Err
		}
		return sum / trials
	}
	if e := meanErr(small); e < 0.5 {
		t.Fatalf("below-crossover k=%d should be broken, mean err %v", small, e)
	}
	if e := meanErr(large); e > 0.5 {
		t.Fatalf("above-crossover k=%d should survive, mean err %v", large, e)
	}
}

// TestSampleSizeMonotonicity: robust sizes behave monotonically in their
// arguments across the public calculators.
func TestSampleSizeMonotonicity(t *testing.T) {
	base := core.Params{Eps: 0.1, Delta: 0.1, N: 1 << 30}
	logR := 20.0
	if core.ReservoirSize(core.Params{Eps: 0.05, Delta: 0.1, N: base.N}, logR) <= core.ReservoirSize(base, logR) {
		t.Fatal("smaller eps must need larger k")
	}
	if core.ReservoirSize(core.Params{Eps: 0.1, Delta: 0.01, N: base.N}, logR) <= core.ReservoirSize(base, logR) {
		t.Fatal("smaller delta must need larger k")
	}
	if core.ReservoirSize(base, 40) <= core.ReservoirSize(base, logR) {
		t.Fatal("larger ln|R| must need larger k")
	}
	if core.BernoulliRate(base, 40) <= core.BernoulliRate(base, logR) {
		t.Fatal("larger ln|R| must need larger p")
	}
	if core.ContinuousReservoirSize(base, logR) <= core.ReservoirSize(base, logR) {
		t.Fatal("continuous robustness must cost more")
	}
}

// TestGameAdversaryCannotCheatVerdict: whatever the adversary does, the
// verdict is computed on the true stream — check the stream recorded by the
// game matches what the verdict used via the exact law of densities.
func TestGameVerdictConsistency(t *testing.T) {
	universe := int64(1 << 14)
	res := game.Run(sampler.NewReservoir[int64](64), adversary.NewStaticUniform(universe),
		setsystem.NewIntervals(universe), 1500, 0.4, rng.New(505))
	// Recompute the witness density gap by hand.
	streamIn, sampleIn := 0, 0
	for _, x := range res.Stream {
		if x >= res.Discrepancy.Lo && x <= res.Discrepancy.Hi {
			streamIn++
		}
	}
	for _, x := range res.Sample {
		if x >= res.Discrepancy.Lo && x <= res.Discrepancy.Hi {
			sampleIn++
		}
	}
	got := math.Abs(float64(streamIn)/float64(len(res.Stream)) -
		float64(sampleIn)/float64(len(res.Sample)))
	if math.Abs(got-res.Discrepancy.Err) > 1e-9 {
		t.Fatalf("witness gap %v != reported %v", got, res.Discrepancy.Err)
	}
}

// TestBernoulliVsReservoirAgreement: at matched expected sample sizes, the
// two samplers achieve comparable approximation errors on the same
// workload.
func TestBernoulliVsReservoirAgreement(t *testing.T) {
	const n = 10000
	universe := int64(1 << 16)
	sys := setsystem.NewPrefixes(universe)
	root := rng.New(606)
	k := 1000
	p := float64(k) / n

	errOf := func(mk func() game.Sampler) float64 {
		sum := 0.0
		const trials = 10
		for i := 0; i < trials; i++ {
			res := game.Run(mk(), adversary.NewStaticUniform(universe), sys, n, 1, root)
			sum += res.Discrepancy.Err
		}
		return sum / trials
	}
	be := errOf(func() game.Sampler { return sampler.NewBernoulli[int64](p) })
	re := errOf(func() game.Sampler { return sampler.NewReservoir[int64](k) })
	if be > 3*re+0.02 || re > 3*be+0.02 {
		t.Fatalf("samplers disagree widely: bernoulli %v vs reservoir %v", be, re)
	}
}

// TestQuickstartPipeline runs the quickstart flow: size a reservoir per
// Theorem 1.2, feed it a stream, and check the sample is an
// eps-approximation.
func TestQuickstartPipeline(t *testing.T) {
	params := core.Params{Eps: 0.2, Delta: 0.1, N: 5000}
	sys := setsystem.NewPrefixes(1 << 20)
	res := sampler.NewReservoir[int64](core.ReservoirSize(params, sys.LogCardinality()))
	r := rng.New(42)
	stream := make([]int64, params.N)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
		res.Offer(stream[i], r)
	}
	d := sys.MaxDiscrepancy(stream, res.View())
	if d.Err > params.Eps {
		t.Fatalf("robust reservoir error %v exceeds eps %v", d.Err, params.Eps)
	}
}

// TestRunGameBenign: against a static uniform stream an Algorithm R
// reservoir plays all n rounds and wins at a loose eps.
func TestRunGameBenign(t *testing.T) {
	const n = 2000
	universe := int64(1 << 16)
	res := game.Run(sampler.NewReservoir[int64](50), adversary.NewStaticUniform(universe),
		setsystem.NewPrefixes(universe), n, 0.5, rng.New(1))
	if len(res.Stream) != n || !res.OK {
		t.Fatalf("Algorithm R benign game: %v", res)
	}
}

// TestAlgorithmLGameBenign: an Algorithm L reservoir plays the same game,
// keeps exactly k elements, and wins it.
func TestAlgorithmLGameBenign(t *testing.T) {
	universe := int64(1 << 16)
	res := game.Run(sampler.NewReservoirL[int64](25), adversary.NewStaticUniform(universe),
		setsystem.NewPrefixes(universe), 2000, 0.9, rng.New(9))
	if !res.OK || len(res.Sample) != 25 {
		t.Fatalf("Algorithm L benign game: %v", res)
	}
}
