package core

import (
	"math"
	"testing"

	"robustsample/internal/adversary"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

func TestBernoulliRateFormula(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.1, N: 100000}
	logR := math.Log(1 << 20)
	got := BernoulliRate(p, logR)
	want := 10 * (logR + math.Log(40)) / (0.01 * 100000)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rate %v, want %v", got, want)
	}
}

func TestBernoulliRateClamps(t *testing.T) {
	p := Params{Eps: 0.01, Delta: 0.01, N: 10}
	if got := BernoulliRate(p, 100); got != 1 {
		t.Fatalf("rate should clamp to 1, got %v", got)
	}
}

func TestReservoirSizeFormula(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.1, N: 1 << 30}
	logR := math.Log(1 << 20)
	got := ReservoirSize(p, logR)
	want := int(math.Ceil(2 * (logR + math.Log(20)) / 0.01))
	if got != want {
		t.Fatalf("k = %d, want %d", got, want)
	}
}

func TestReservoirSizeCapsAtN(t *testing.T) {
	p := Params{Eps: 0.05, Delta: 0.01, N: 50}
	if got := ReservoirSize(p, 20); got != 50 {
		t.Fatalf("k should cap at n=50, got %d", got)
	}
}

func TestStaticBoundsSmallerThanAdaptive(t *testing.T) {
	// For a prefix system over a large universe, ln|R| >> d = 1, so the
	// static bound must be much smaller — that gap is the paper's point.
	p := Params{Eps: 0.1, Delta: 0.1, N: 1 << 30}
	sys := setsystem.NewPrefixes(1 << 40)
	adaptive := ReservoirSize(p, sys.LogCardinality())
	static := StaticReservoirSize(p, 1) // the VC dimension of prefixes
	if static >= adaptive {
		t.Fatalf("static k=%d should be < adaptive k=%d", static, adaptive)
	}
	if ratio := float64(adaptive) / float64(static); ratio < 3 {
		t.Fatalf("expected a substantial gap, ratio %v", ratio)
	}
}

func TestContinuousSizeLargerThanPlain(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.1, N: 100000}
	logR := math.Log(1 << 20)
	plain := ReservoirSize(p, logR)
	cont := ContinuousReservoirSize(p, logR)
	if cont <= plain {
		t.Fatalf("continuous k=%d must exceed plain k=%d", cont, plain)
	}
	// But only by the ln(1/eps) + ln ln n overhead, not astronomically:
	// the eps/4 in the proof costs a factor ~16-32 overall.
	if cont > 64*plain {
		t.Fatalf("continuous k=%d unreasonably large vs %d", cont, plain)
	}
}

func TestContinuousCheckpointCount(t *testing.T) {
	p := Params{Eps: 0.2, Delta: 0.1, N: 100000}
	town := ContinuousCheckpointCount(p)
	want := int(math.Ceil(math.Log(100000)/math.Log1p(0.05))) + 1
	if town != want {
		t.Fatalf("t = %d, want %d", town, want)
	}
}

func TestQuantileAndHHConvenience(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.1, N: 100000}
	q := QuantileSketchSize(p, 1<<20)
	if q != ReservoirSize(p, math.Log(1<<20)) {
		t.Fatal("quantile size must match prefix-system reservoir size")
	}
	hh := HeavyHitterSize(0.3, 0.1, 100000, 1<<20)
	if hh != ReservoirSize(Params{Eps: 0.1, Delta: 0.1, N: 100000}, math.Log(1<<20)) {
		t.Fatal("HH size must match eps/3 singleton-system size")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Eps: 0, Delta: 0.1, N: 10},
		{Eps: 1, Delta: 0.1, N: 10},
		{Eps: 0.1, Delta: 0, N: 10},
		{Eps: 0.1, Delta: 1, N: 10},
		{Eps: 0.1, Delta: 0.1, N: 0},
	}
	for _, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("params %+v did not panic", p)
				}
			}()
			BernoulliRate(p, 1)
		}()
	}
}

func TestNewRobustSamplers(t *testing.T) {
	p := Params{Eps: 0.2, Delta: 0.1, N: 10000}
	sys := setsystem.NewPrefixes(1 << 16)
	b := NewRobustBernoulli(p, sys)
	if b.P != BernoulliRate(p, sys.LogCardinality()) {
		t.Fatal("robust Bernoulli rate mismatch")
	}
}

func TestRobustReservoirSurvivesBisection(t *testing.T) {
	// Theorem 1.2 integration check: at the robust k, the bisection
	// attack must fail to break the eps-approximation in (almost) all
	// trials.
	p := Params{Eps: 0.25, Delta: 0.2, N: 3000}
	universe := int64(1) << 62
	sys := setsystem.NewPrefixes(universe)
	k := ReservoirSize(p, sys.LogCardinality())
	root := rng.New(1)
	est := EstimateRobustnessWorkers(
		func() game.Sampler { return sampler.NewReservoir[int64](k) },
		func() game.Adversary { return adversary.NewBisectionReservoir(universe, p.N, k) },
		sys, p, 30, 0, root,
	)
	// Allow Monte-Carlo slack above delta.
	if est.Failure.Rate() > p.Delta+0.15 {
		t.Fatalf("robust reservoir failed too often: %v", est.Failure)
	}
}

func TestTinyReservoirBreaksUnderExactAttack(t *testing.T) {
	// Complement of the above: far below the bound, the attack wins.
	root := rng.New(2)
	const n, k = 4000, 5
	broken := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		res := adversary.RunExactBisectionReservoir(n, k, r)
		d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
		if d.Err > 0.5 {
			broken++
		}
	}
	if broken < trials*3/4 {
		t.Fatalf("tiny reservoir broken in only %d/%d trials", broken, trials)
	}
}

func TestEstimateRobustnessDeterministic(t *testing.T) {
	p := Params{Eps: 0.3, Delta: 0.2, N: 500}
	sys := setsystem.NewPrefixes(1 << 16)
	mk := func() RobustnessEstimate {
		return EstimateRobustnessWorkers(
			func() game.Sampler { return sampler.NewReservoir[int64](50) },
			func() game.Adversary { return adversary.NewStaticUniform(1 << 16) },
			sys, p, 10, 0, rng.New(7),
		)
	}
	a, b := mk(), mk()
	if a.Failure != b.Failure || a.Errors.Mean != b.Errors.Mean {
		t.Fatal("estimate not deterministic under fixed seed")
	}
}

func TestEstimateRobustnessCountsTrials(t *testing.T) {
	p := Params{Eps: 0.3, Delta: 0.2, N: 500}
	for _, trials := range []int{1, 5} {
		est := EstimateRobustnessWorkers(
			func() game.Sampler { return sampler.NewReservoir[int64](60) },
			func() game.Adversary { return adversary.NewStaticUniform(1 << 16) },
			setsystem.NewPrefixes(1<<16), p, trials, 0, rng.New(5),
		)
		if est.Failure.Trials != trials || est.Errors.N != trials {
			t.Fatalf("estimate counted %d trials and %d errors, want %d",
				est.Failure.Trials, est.Errors.N, trials)
		}
	}
}

func TestEstimateRobustnessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for trials=0")
		}
	}()
	EstimateRobustnessWorkers(
		func() game.Sampler { return sampler.NewReservoir[int64](5) },
		func() game.Adversary { return adversary.NewStaticUniform(10) },
		setsystem.NewPrefixes(10), Params{Eps: 0.1, Delta: 0.1, N: 10}, 0, 0, rng.New(1),
	)
}

func TestEstimateContinuousRobustness(t *testing.T) {
	p := Params{Eps: 0.3, Delta: 0.2, N: 800}
	sys := setsystem.NewPrefixes(1 << 16)
	k := ContinuousReservoirSize(p, sys.LogCardinality())
	root := rng.New(3)
	est := EstimateContinuousRobustnessWorkers(
		func() game.Sampler { return sampler.NewReservoir[int64](k) },
		func() game.Adversary { return adversary.NewStaticUniform(1 << 16) },
		sys, p, k, 10, 0, root,
	)
	if est.Failure.Rate() > p.Delta+0.2 {
		t.Fatalf("continuous robust reservoir failed too often: %v", est.Failure)
	}
	if est.Errors.N != 10 {
		t.Fatal("trial count mismatch")
	}
}

func TestRobustnessEstimateString(t *testing.T) {
	if (RobustnessEstimate{}).String() == "" {
		t.Fatal("empty string")
	}
}
