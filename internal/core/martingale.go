package core

import "math"

// This file implements the martingale constructions of Section 4 as
// instrumented trackers. For a fixed range R, the paper defines
//
//	Bernoulli (Section 4.1, eq. (1)):
//	  A_i = |R ∩ X_i| / n,   B_i = |R ∩ S_i| / (n p),   Z_i = B_i - A_i
//
//	Reservoir (Section 4.2), for i > k:
//	  A_i = |R ∩ X_i|,       B_i = (i/k) |R ∩ S_i|,     Z_i = B_i - A_i
//	  (A_i = B_i = |R ∩ X_i| while i <= k)
//
// Claim 4.2 / Claim 4.3 prove these are martingales with bounded conditional
// variance (1/(n^2 p) and i/k respectively) and bounded steps (1/(n p) and
// i/k). The trackers record the realized trajectory, per-step increments,
// and the theoretical variance budget, so experiment E15 can (a) verify the
// empirical drift is ~0, (b) confirm every step respects the claimed bound,
// and (c) compare the realized deviation to the Freedman bound (Lemma 3.3).

// MartingaleStep records one realized increment of Z.
type MartingaleStep struct {
	// Round is the 1-based round index.
	Round int
	// InR reports whether the submitted element was in R.
	InR bool
	// Admitted reports whether the element entered the sample.
	Admitted bool
	// Z is the value of Z after the round.
	Z float64
	// StepBound is the maximal |Z_i - Z_{i-1}| Claim 4.2/4.3 allows for
	// this round.
	StepBound float64
	// VarBound is the conditional variance bound for this round.
	VarBound float64
}

// BernoulliMartingale tracks Z_i for Bernoulli sampling with rate P over a
// stream of length N, for a fixed range predicate.
type BernoulliMartingale struct {
	// N is the stream length, P the sampling rate.
	N int
	P float64
	// InR decides membership of an element in the fixed range R.
	InR func(x int64) bool

	round     int
	inRStream int // |R ∩ X_i|
	inRSample int // |R ∩ S_i|
	steps     []MartingaleStep
}

// NewBernoulliMartingale constructs a tracker. It panics on invalid
// parameters.
func NewBernoulliMartingale(n int, p float64, inR func(x int64) bool) *BernoulliMartingale {
	if n < 1 {
		panic("core: martingale needs n >= 1")
	}
	if p <= 0 || p > 1 {
		panic("core: martingale needs 0 < p <= 1")
	}
	if inR == nil {
		panic("core: martingale needs a range predicate")
	}
	return &BernoulliMartingale{N: n, P: p, InR: inR}
}

// Observe folds in round i: the element x and whether the sampler admitted
// it. It must be called exactly once per round, in order.
func (m *BernoulliMartingale) Observe(x int64, admitted bool) {
	m.round++
	in := m.InR(x)
	if in {
		m.inRStream++
		if admitted {
			m.inRSample++
		}
	}
	nf := float64(m.N)
	a := float64(m.inRStream) / nf
	b := float64(m.inRSample) / (nf * m.P)
	stepBound := 0.0
	varBound := 0.0
	if in {
		// Claim 4.2: |step| <= 1/(np); Var <= 1/(n^2 p).
		stepBound = 1 / (nf * m.P)
		varBound = 1 / (nf * nf * m.P)
	}
	m.steps = append(m.steps, MartingaleStep{
		Round:     m.round,
		InR:       in,
		Admitted:  admitted,
		Z:         b - a,
		StepBound: stepBound,
		VarBound:  varBound,
	})
}

// Z returns the current value of the martingale (0 before any round).
func (m *BernoulliMartingale) Z() float64 {
	if len(m.steps) == 0 {
		return 0
	}
	return m.steps[len(m.steps)-1].Z
}

// MaxStepViolation returns the largest amount by which any realized step
// exceeded its Claim 4.2 bound (0 if none did; tolerance for float noise is
// the caller's concern).
func (m *BernoulliMartingale) MaxStepViolation() float64 {
	return maxStepViolation(m.steps)
}

// VarianceBudget returns the sum of conditional variance bounds, the
// denominator in the Freedman bound.
func (m *BernoulliMartingale) VarianceBudget() float64 {
	return varianceBudget(m.steps)
}

// FreedmanLambda returns the deviation lambda at which the Lemma 3.3 bound
// on Pr[|Z_n| >= lambda] equals delta, with the realized variance budget and
// the Claim 4.2 step bound 1/(np).
func (m *BernoulliMartingale) FreedmanLambda(delta float64) float64 {
	return freedmanLambda(m.VarianceBudget(), 1/(float64(m.N)*m.P), delta)
}

// ReservoirMartingale tracks Z_i for reservoir sampling with memory K, for a
// fixed range predicate. Because B_i depends on the full sample composition,
// the tracker observes |R ∩ S_i| directly rather than incrementally.
type ReservoirMartingale struct {
	// K is the reservoir memory size.
	K int
	// InR decides membership of an element in the fixed range R.
	InR func(x int64) bool

	round     int
	inRStream int
	steps     []MartingaleStep
}

// NewReservoirMartingale constructs a tracker. It panics on invalid
// parameters.
func NewReservoirMartingale(k int, inR func(x int64) bool) *ReservoirMartingale {
	if k < 1 {
		panic("core: martingale needs k >= 1")
	}
	if inR == nil {
		panic("core: martingale needs a range predicate")
	}
	return &ReservoirMartingale{K: k, InR: inR}
}

// Observe folds in round i: the element x, whether it was admitted, and the
// sampler's current sample view (after the update).
func (m *ReservoirMartingale) Observe(x int64, admitted bool, sample []int64) {
	m.round++
	in := m.InR(x)
	if in {
		m.inRStream++
	}
	inRSample := 0
	for _, v := range sample {
		if m.InR(v) {
			inRSample++
		}
	}
	var a, b float64
	i := float64(m.round)
	k := float64(m.K)
	if m.round <= m.K {
		// Paper's convention: A_i = B_i = |R ∩ X_i| while the
		// reservoir is filling.
		a = float64(m.inRStream)
		b = a
	} else {
		a = float64(m.inRStream)
		b = i / k * float64(inRSample)
	}
	stepBound := 0.0
	varBound := 0.0
	if m.round > m.K {
		// Claim 4.3: |step| <= i/k and Var <= i/k.
		stepBound = i / k
		varBound = i / k
	}
	m.steps = append(m.steps, MartingaleStep{
		Round:     m.round,
		InR:       in,
		Admitted:  admitted,
		Z:         b - a,
		StepBound: stepBound,
		VarBound:  varBound,
	})
}

// Z returns the current value of the martingale (0 before any round).
func (m *ReservoirMartingale) Z() float64 {
	if len(m.steps) == 0 {
		return 0
	}
	return m.steps[len(m.steps)-1].Z
}

// MaxStepViolation returns the largest amount by which any realized step
// exceeded its Claim 4.3 bound.
func (m *ReservoirMartingale) MaxStepViolation() float64 {
	return maxStepViolation(m.steps)
}

// VarianceBudget returns the sum of conditional variance bounds.
func (m *ReservoirMartingale) VarianceBudget() float64 {
	return varianceBudget(m.steps)
}

// FreedmanLambda returns the deviation lambda at which the Lemma 3.3 bound
// on Pr[|Z_n| >= lambda] equals delta, with the realized variance budget and
// the Claim 4.3 step bound n/k.
func (m *ReservoirMartingale) FreedmanLambda(delta float64) float64 {
	return freedmanLambda(m.VarianceBudget(), float64(m.round)/float64(m.K), delta)
}

func maxStepViolation(steps []MartingaleStep) float64 {
	worst := 0.0
	prev := 0.0
	for _, s := range steps {
		diff := math.Abs(s.Z - prev)
		if excess := diff - s.StepBound; excess > worst {
			worst = excess
		}
		prev = s.Z
	}
	return worst
}

func varianceBudget(steps []MartingaleStep) float64 {
	sum := 0.0
	for _, s := range steps {
		sum += s.VarBound
	}
	return sum
}

// freedmanLambda solves Lemma 3.3's tail 2 exp(-l^2 / (2V + M l / 3)) = delta
// for l, given the variance budget V and the step bound M.
func freedmanLambda(sumVar, m, delta float64) float64 {
	c := math.Log(2 / delta)
	// l^2 = c (2V + M l / 3) => l^2 - (cM/3) l - 2cV = 0.
	b := c * m / 3
	return (b + math.Sqrt(b*b+8*c*sumVar)) / 2
}
