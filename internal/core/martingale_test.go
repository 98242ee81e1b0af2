package core

import (
	"math"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

func inHalf(x int64) bool { return x <= 500 }

// Steps returns the recorded trajectory.
func (m *BernoulliMartingale) Steps() []MartingaleStep { return m.steps }

// EmpiricalDrift estimates E[Z_n] over `trials` independent Bernoulli(p)
// replays of a fixed stream; for a true martingale it converges to 0. It
// panics when trials < 1.
func EmpiricalDrift(stream []int64, p float64, inR func(int64) bool, trials int, root *rng.RNG) float64 {
	if trials < 1 {
		panic("core: trials must be >= 1")
	}
	sum := 0.0
	for t := 0; t < trials; t++ {
		r := root.Split()
		m := NewBernoulliMartingale(len(stream), p, inR)
		for _, x := range stream {
			m.Observe(x, r.Bernoulli(p))
		}
		sum += m.Z()
	}
	return sum / float64(trials)
}

func TestBernoulliMartingaleStepsRespectBounds(t *testing.T) {
	r := rng.New(1)
	const n = 2000
	p := 0.05
	m := NewBernoulliMartingale(n, p, inHalf)
	for i := 0; i < n; i++ {
		x := 1 + r.Int63n(1000)
		m.Observe(x, r.Bernoulli(p))
	}
	if v := m.MaxStepViolation(); v > 1e-9 {
		t.Fatalf("Claim 4.2 step bound violated by %v", v)
	}
	if len(m.Steps()) != n {
		t.Fatalf("recorded %d steps", len(m.Steps()))
	}
}

func TestBernoulliMartingaleOutOfRangeStepsAreZero(t *testing.T) {
	r := rng.New(2)
	m := NewBernoulliMartingale(100, 0.5, func(x int64) bool { return false })
	for i := 0; i < 100; i++ {
		m.Observe(int64(i), r.Bernoulli(0.5))
	}
	if m.Z() != 0 {
		t.Fatalf("Z moved without in-range elements: %v", m.Z())
	}
	if m.VarianceBudget() != 0 {
		t.Fatal("variance accumulated without in-range elements")
	}
}

func TestBernoulliMartingaleDriftNearZero(t *testing.T) {
	// Claim 4.2: E[Z_n] = 0 for any fixed stream. Use an adversarially
	// skewed fixed stream and many replays.
	r := rng.New(3)
	const n = 500
	stream := make([]int64, n)
	for i := range stream {
		// Heavy concentration inside R to maximize variance.
		stream[i] = 1 + r.Int63n(600)
	}
	p := 0.1
	drift := EmpiricalDrift(stream, p, inHalf, 4000, rng.New(4))
	// SD of Z_n is ~ sqrt(n_R (1-p) / (n^2 p)) <= sqrt(1/(n p)) ~ 0.14;
	// the mean over 4000 trials has SD ~ 0.0023.
	if math.Abs(drift) > 0.01 {
		t.Fatalf("empirical drift %v too large for a martingale", drift)
	}
}

func TestBernoulliMartingaleExactIncrements(t *testing.T) {
	// Verify the algebra of eq. (1) directly on a tiny example.
	m := NewBernoulliMartingale(4, 0.5, inHalf)
	m.Observe(1, true) // in R, admitted: Z = 1/(np) - 1/n = 1/2 - 1/4
	want := 1/(4*0.5) - 1.0/4
	if math.Abs(m.Z()-want) > 1e-12 {
		t.Fatalf("Z = %v, want %v", m.Z(), want)
	}
	m.Observe(2, false) // in R, rejected: Z -= 1/n
	want -= 1.0 / 4
	if math.Abs(m.Z()-want) > 1e-12 {
		t.Fatalf("Z = %v, want %v", m.Z(), want)
	}
	m.Observe(900, true) // not in R: Z unchanged
	if math.Abs(m.Z()-want) > 1e-12 {
		t.Fatalf("Z = %v changed on out-of-range element", m.Z())
	}
}

func TestBernoulliMartingaleFreedman(t *testing.T) {
	m := NewBernoulliMartingale(1000, 0.1, inHalf)
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		m.Observe(1+r.Int63n(1000), r.Bernoulli(0.1))
	}
	if l1, l2 := m.FreedmanLambda(0.05), m.FreedmanLambda(0.5); l2 >= l1 {
		t.Fatalf("Freedman lambda %v at delta=0.5 not below %v at delta=0.05", l2, l1)
	}
}

func TestBernoulliMartingaleValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewBernoulliMartingale(0, 0.5, inHalf) },
		func() { NewBernoulliMartingale(10, 0, inHalf) },
		func() { NewBernoulliMartingale(10, 1.5, inHalf) },
		func() { NewBernoulliMartingale(10, 0.5, nil) },
		func() { NewReservoirMartingale(0, inHalf) },
		func() { NewReservoirMartingale(5, nil) },
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

func TestReservoirMartingaleStepsRespectBounds(t *testing.T) {
	r := rng.New(6)
	const n, k = 2000, 20
	res := sampler.NewReservoir[int64](k)
	m := NewReservoirMartingale(k, inHalf)
	for i := 0; i < n; i++ {
		x := 1 + r.Int63n(1000)
		adm := res.Offer(x, r)
		m.Observe(x, adm, res.View())
	}
	if v := m.MaxStepViolation(); v > 1e-9 {
		t.Fatalf("Claim 4.3 step bound violated by %v", v)
	}
}

func TestReservoirMartingaleFillPhaseZero(t *testing.T) {
	// While i <= k, A_i = B_i so Z = 0 exactly.
	r := rng.New(7)
	const k = 10
	res := sampler.NewReservoir[int64](k)
	m := NewReservoirMartingale(k, inHalf)
	for i := 0; i < k; i++ {
		x := 1 + r.Int63n(1000)
		adm := res.Offer(x, r)
		m.Observe(x, adm, res.View())
		if m.Z() != 0 {
			t.Fatalf("Z = %v during fill phase", m.Z())
		}
	}
}

func TestReservoirMartingaleDriftNearZero(t *testing.T) {
	// Replay a fixed skewed stream many times; mean Z_n must be ~0.
	root := rng.New(8)
	const n, k, trials = 400, 10, 3000
	stream := make([]int64, n)
	gen := rng.New(9)
	for i := range stream {
		stream[i] = 1 + gen.Int63n(700)
	}
	sum := 0.0
	sumAbs := 0.0
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		res := sampler.NewReservoir[int64](k)
		m := NewReservoirMartingale(k, inHalf)
		for _, x := range stream {
			adm := res.Offer(x, r)
			m.Observe(x, adm, res.View())
		}
		sum += m.Z()
		sumAbs += math.Abs(m.Z())
	}
	mean := sum / trials
	meanAbs := sumAbs / trials
	// |Z_n| is on the order of n/sqrt(k) here; the drift must be a tiny
	// fraction of the typical magnitude.
	if meanAbs > 0 && math.Abs(mean) > 0.15*meanAbs {
		t.Fatalf("drift %v is large relative to mean |Z| = %v", mean, meanAbs)
	}
}

func TestReservoirMartingaleFreedman(t *testing.T) {
	r := rng.New(10)
	const n, k = 500, 10
	res := sampler.NewReservoir[int64](k)
	m := NewReservoirMartingale(k, inHalf)
	for i := 0; i < n; i++ {
		x := 1 + r.Int63n(1000)
		adm := res.Offer(x, r)
		m.Observe(x, adm, res.View())
	}
	// Variance budget = sum_{i=k+1}^{n} i/k, per Claim 4.3.
	want := 0.0
	for i := k + 1; i <= n; i++ {
		want += float64(i) / float64(k)
	}
	if math.Abs(m.VarianceBudget()-want) > 1e-9 {
		t.Fatalf("variance budget %v, want %v", m.VarianceBudget(), want)
	}
	if m.FreedmanLambda(0.01) <= m.FreedmanLambda(0.5) {
		t.Fatal("Freedman lambda not decreasing in delta")
	}
}

// TestFreedmanLambdaClosedForm pins each martingale's Lemma 3.3 inputs: at
// the returned lambda the tail 2 exp(-lambda^2 / (2V + M lambda/3)) equals
// delta, with the realized variance budget V and the Claim 4.2/4.3 step
// bound M, which is 1/(np) for Bernoulli sampling and n/k for reservoir
// sampling.
func TestFreedmanLambdaClosedForm(t *testing.T) {
	check := func(t *testing.T, lambdaAt func(float64) float64, sumVar, m float64) {
		for _, delta := range []float64{0.01, 0.1, 0.5} {
			lambda := lambdaAt(delta)
			if tail := 2 * math.Exp(-lambda*lambda/(2*sumVar+m*lambda/3)); math.Abs(tail-delta) > 1e-12 {
				t.Fatalf("delta=%v: lambda %v gives tail %v", delta, lambda, tail)
			}
		}
	}
	const n = 1000
	t.Run("bernoulli", func(t *testing.T) {
		r := rng.New(11)
		m := NewBernoulliMartingale(n, 0.1, inHalf)
		for i := 0; i < n; i++ {
			m.Observe(1+r.Int63n(1000), r.Bernoulli(0.1))
		}
		check(t, m.FreedmanLambda, m.VarianceBudget(), 1/(n*0.1))
	})
	t.Run("reservoir", func(t *testing.T) {
		r := rng.New(12)
		const k = 20
		res := sampler.NewReservoir[int64](k)
		m := NewReservoirMartingale(k, inHalf)
		for i := 0; i < n; i++ {
			x := 1 + r.Int63n(1000)
			m.Observe(x, res.Offer(x, r), res.View())
		}
		check(t, m.FreedmanLambda, m.VarianceBudget(), float64(n)/k)
	})
}

func TestEmpiricalDriftPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EmpiricalDrift([]int64{1}, 0.5, inHalf, 0, rng.New(1))
}

func BenchmarkBernoulliMartingaleObserve(b *testing.B) {
	r := rng.New(1)
	m := NewBernoulliMartingale(b.N+1, 0.1, inHalf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(int64(i%1000)+1, r.Bernoulli(0.1))
	}
}
