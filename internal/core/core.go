// Package core packages the paper's main contribution as a reusable
// library: given an approximation target (eps, delta), a stream length n,
// and a set system (U, R), it computes the sample-size parameters that make
// Bernoulli and reservoir sampling adversarially robust (Theorems 1.2 and
// 1.4), constructs samplers so parameterized, and estimates robustness
// empirically by Monte-Carlo over adversarial games.
//
// It also exposes the martingale construction of Section 4 — the sequence
// Z_i^R = B_i^R - A_i^R for a fixed range R — as an instrumented tracker, so
// experiments can verify the martingale property and the Freedman-bound
// tightness that drive the upper-bound proofs.
package core

import (
	"fmt"
	"math"
	"sync"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/stats"
)

// pooledAcc pairs a reusable incremental engine with the set system it was
// built for; engines are only valid for their own system.
type pooledAcc struct {
	sys setsystem.SetSystem
	acc *setsystem.Accumulator
}

var accPool sync.Pool

// acquireAccumulator returns an incremental engine for sys, reusing a
// pooled one when its system matches (the usual case: one experiment
// estimates many rows over the same system, and an engine's compression
// tables are its dominant allocation). Pooling is restricted to the four
// in-repo set-system types, which are comparable values; a pooled engine
// for a different system is simply dropped.
func acquireAccumulator(sys setsystem.SetSystem) *setsystem.Accumulator {
	switch sys.(type) {
	case setsystem.Prefixes, setsystem.Intervals, setsystem.Singletons, setsystem.Suffixes:
	default:
		return sys.NewAccumulator()
	}
	if v := accPool.Get(); v != nil {
		if p := v.(*pooledAcc); p.sys == sys {
			return p.acc
		}
	}
	return sys.NewAccumulator()
}

// releaseAccumulator returns an engine to the pool for the next estimate.
func releaseAccumulator(sys setsystem.SetSystem, acc *setsystem.Accumulator) {
	if acc == nil {
		return
	}
	switch sys.(type) {
	case setsystem.Prefixes, setsystem.Intervals, setsystem.Singletons, setsystem.Suffixes:
		accPool.Put(&pooledAcc{sys: sys, acc: acc})
	}
}

// Params bundles an approximation target for a stream of known length.
type Params struct {
	// Eps is the approximation parameter of Definition 1.1.
	Eps float64
	// Delta is the allowed failure probability.
	Delta float64
	// N is the stream length.
	N int
}

func (p Params) validate() {
	if p.Eps <= 0 || p.Eps >= 1 {
		panic("core: need 0 < eps < 1")
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		panic("core: need 0 < delta < 1")
	}
	if p.N < 1 {
		panic("core: need n >= 1")
	}
}

// BernoulliRate returns the Theorem 1.2 sampling rate for BernoulliSample:
//
//	p = 10 * (ln|R| + ln(4/delta)) / (eps^2 n),
//
// clamped to 1. With this rate the sampler is (eps, delta)-robust against
// any adaptive adversary.
func BernoulliRate(p Params, logCardinality float64) float64 {
	p.validate()
	rate := 10 * (logCardinality + math.Log(4/p.Delta)) / (p.Eps * p.Eps * float64(p.N))
	if rate > 1 {
		return 1
	}
	return rate
}

// ReservoirSize returns the Theorem 1.2 memory size for ReservoirSample:
//
//	k = ceil( 2 * (ln|R| + ln(2/delta)) / eps^2 ),
//
// capped at n (a reservoir of size n stores the whole stream). With this k
// the sampler is (eps, delta)-robust against any adaptive adversary.
func ReservoirSize(p Params, logCardinality float64) int {
	p.validate()
	k := int(math.Ceil(2 * (logCardinality + math.Log(2/p.Delta)) / (p.Eps * p.Eps)))
	if k < 1 {
		k = 1
	}
	if k > p.N {
		k = p.N
	}
	return k
}

// StaticReservoirSize returns the classical non-adaptive reservoir size, in
// which the cardinality term ln|R| of Theorem 1.2 is replaced by the
// VC-dimension d ([VC71, Tal94, LLS01]):
//
//	k = ceil(c (d + ln 1/delta) / eps^2), with c = 2.
//
// Against an adaptive adversary this size is NOT sufficient in general
// (Theorem 1.3); experiment E11 demonstrates the gap.
func StaticReservoirSize(p Params, vcDim int) int {
	p.validate()
	k := int(math.Ceil(2 * (float64(vcDim) + math.Log(1/p.Delta)) / (p.Eps * p.Eps)))
	if k < 1 {
		k = 1
	}
	if k > p.N {
		k = p.N
	}
	return k
}

// ContinuousCheckpointCount returns t, the number of geometric checkpoints
// i_1 < ... < i_t used by the Theorem 1.4 proof: consecutive points grow by
// (1 + eps/4), so t = O(eps^-1 ln n).
func ContinuousCheckpointCount(p Params) int {
	p.validate()
	t := int(math.Ceil(math.Log(float64(p.N))/math.Log1p(p.Eps/4))) + 1
	if t < 1 {
		t = 1
	}
	return t
}

// ContinuousReservoirSize returns the Theorem 1.4 memory size making
// ReservoirSample (eps, delta)-continuously robust. Following the proof, the
// reservoir must (a) be an (eps/4)-approximation at each of t checkpoints
// with per-checkpoint budget delta/2t, and (b) admit at most eps*k/2
// elements between consecutive checkpoints except with probability
// delta/2t, which needs k >= (4/eps) ln(2t/delta). The result is
//
//	k = max( 2*(ln|R| + ln(4t/delta)) / (eps/4)^2,  (4/eps) ln(2t/delta) ),
//
// capped at n.
func ContinuousReservoirSize(p Params, logCardinality float64) int {
	p.validate()
	t := float64(ContinuousCheckpointCount(p))
	approx := 2 * (logCardinality + math.Log(4*t/p.Delta)) / ((p.Eps / 4) * (p.Eps / 4))
	admit := 4 / p.Eps * math.Log(2*t/p.Delta)
	k := int(math.Ceil(math.Max(approx, admit)))
	if k < 1 {
		k = 1
	}
	if k > p.N {
		k = p.N
	}
	return k
}

// QuantileSketchSize returns the Corollary 1.5 reservoir size for an
// (eps, delta)-robust quantile sketch over a well-ordered universe of size
// universeSize: the prefix system has |R| = |U|.
func QuantileSketchSize(p Params, universeSize int64) int {
	return ReservoirSize(p, math.Log(float64(universeSize)))
}

// HeavyHitterSize returns the Corollary 1.6 reservoir size for solving
// (alpha, eps) heavy hitters in the adversarial model: an eps/3
// approximation over the singleton system with |R| = |U|.
func HeavyHitterSize(eps, delta float64, n int, universeSize int64) int {
	return ReservoirSize(Params{Eps: eps / 3, Delta: delta, N: n}, math.Log(float64(universeSize)))
}

// NewRobustBernoulli constructs a Bernoulli sampler parameterized per
// Theorem 1.2 for the given set system.
func NewRobustBernoulli(p Params, sys setsystem.SetSystem) *sampler.Bernoulli[int64] {
	return sampler.NewBernoulli[int64](BernoulliRate(p, sys.LogCardinality()))
}

// RobustnessEstimate summarizes a Monte-Carlo robustness measurement.
type RobustnessEstimate struct {
	// Failure counts games whose final sample was not an
	// eps-approximation.
	Failure stats.FailureRate
	// Errors summarizes the exact discrepancy across games.
	Errors stats.Summary
	// TheoryDelta is the failure probability Theorem 1.2 guarantees the
	// measurement must not exceed (up to Monte-Carlo noise).
	TheoryDelta float64
}

func (e RobustnessEstimate) String() string {
	return fmt.Sprintf("fail=%v errs{%v} theory<=%.3g", e.Failure, e.Errors, e.TheoryDelta)
}

// SamplerFactory builds a fresh sampler per game; Monte-Carlo estimation
// runs many games and samplers are stateful. Estimation fans trials out
// across a worker pool, so factories may be invoked concurrently and must
// be safe for that (stateless constructor closures are).
type SamplerFactory func() game.Sampler

// AdversaryFactory builds a fresh adversary per game. Like SamplerFactory,
// it may be invoked concurrently.
type AdversaryFactory func() game.Adversary

// EstimateRobustnessWorkers plays `trials` independent adaptive games and
// measures the empirical failure rate of the eps-approximation verdict,
// alongside the distribution of exact discrepancies. The root RNG is split
// per trial, so results are deterministic given the root. Trials run on a
// worker pool: workers <= 0 selects runtime.GOMAXPROCS(0), workers == 1
// forces a serial loop. The per-trial RNGs are split sequentially from root
// before the fan-out (ForEachSplitTrial), so the estimate is byte-identical
// for every worker count.
// The factories are invoked once per worker (each game fully Resets the
// players, so reuse across a worker's trials changes nothing) from worker
// goroutines, and must be safe for concurrent calls; plain constructor
// closures, like every factory in this repository, are.
func EstimateRobustnessWorkers(mkSampler SamplerFactory, mkAdv AdversaryFactory, sys setsystem.SetSystem, p Params, trials, workers int, root *rng.RNG) RobustnessEstimate {
	p.validate()
	return estimate(mkSampler, mkAdv, sys, p, []int{p.N}, trials, workers, root)
}

// EstimateContinuousRobustnessWorkers is the continuous-game analogue of
// EstimateRobustnessWorkers: a trial fails if any checkpoint prefix violates
// the eps-approximation. The checkpoint schedule is the Theorem 1.4
// geometric grid starting at start. Output is byte-identical for every
// worker count.
func EstimateContinuousRobustnessWorkers(mkSampler SamplerFactory, mkAdv AdversaryFactory, sys setsystem.SetSystem, p Params, start, trials, workers int, root *rng.RNG) RobustnessEstimate {
	p.validate()
	return estimate(mkSampler, mkAdv, sys, p, game.MustCheckpoints(start, p.N, p.Eps/4), trials, workers, root)
}

// estimate plays the trials of both estimators, each a continuous game
// judged at checkpoints (the plain estimate is the schedule {N}, judged
// once). Each worker reuses one sampler, one adversary and one incremental
// discrepancy engine across its trials (every game fully Resets them), so
// the table-driving hot loop allocates per worker, not per game.
func estimate(mkSampler SamplerFactory, mkAdv AdversaryFactory, sys setsystem.SetSystem, p Params, checkpoints []int, trials, workers int, root *rng.RNG) RobustnessEstimate {
	if trials < 1 {
		panic("core: trials must be >= 1")
	}
	errs := make([]float64, trials)
	failed := make([]bool, trials)
	samplers := make([]game.Sampler, WorkerCount(trials, workers))
	advs := make([]game.Adversary, len(samplers))
	accs := make([]*setsystem.Accumulator, len(samplers))
	ForEachSplitTrial(trials, workers, root, func(worker, trial int, r *rng.RNG) {
		if samplers[worker] == nil {
			samplers[worker] = mkSampler()
			advs[worker] = mkAdv()
			accs[worker] = acquireAccumulator(sys)
		}
		res := game.RunContinuousWith(samplers[worker], advs[worker], sys, p.N, p.Eps, checkpoints, r, accs[worker])
		failed[trial] = !res.OK
		errs[trial] = res.MaxPrefixErr
	})
	for _, acc := range accs {
		releaseAccumulator(sys, acc)
	}
	failures := 0
	for _, f := range failed {
		if f {
			failures++
		}
	}
	return RobustnessEstimate{
		Failure:     stats.FailureRate{Failures: failures, Trials: trials},
		Errors:      stats.Summarize(errs),
		TheoryDelta: p.Delta,
	}
}
