package bench

import (
	"fmt"
	"math"

	"robustsample/internal/adversary"
	"robustsample/internal/core"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/stats"
)

// expUniverse is the bounded universe used by the robustness experiments;
// ln|R| = 20 ln 2 for the prefix system.
const expUniverse = int64(1) << 20

// adversarySuite returns the adversaries the robustness rows sweep over.
func adversarySuite(n int) map[string]core.AdversaryFactory {
	return map[string]core.AdversaryFactory{
		"static-uniform": func() game.Adversary { return adversary.NewStaticUniform(expUniverse) },
		"static-sorted":  func() game.Adversary { return adversary.NewStaticSorted(expUniverse) },
		"bisection":      func() game.Adversary { return adversary.NewBisectionBernoulli(expUniverse, n, 0) },
		"median-pusher":  func() game.Adversary { return adversary.NewMedianPusher(expUniverse) },
	}
}

var adversaryOrder = []string{"static-uniform", "static-sorted", "bisection", "median-pusher"}

// ExpE1 reproduces Theorem 1.2 for BernoulliSample: at the prescribed rate
// p = 10(ln|R| + ln(4/delta))/(eps^2 n), the empirical failure probability
// of the eps-approximation must stay at or below delta for every adversary.
func ExpE1(cfg Config) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Bernoulli robustness at the Theorem 1.2 rate",
		Source:  "Theorem 1.2 (first bullet); prefix system over U = [2^20]",
		Columns: []string{"eps", "adversary", "p", "E[|S|]", "fail-rate", "mean-err", "max-err", "theory-delta"},
	}
	root := rng.New(cfg.Seed)
	sys := setsystem.NewPrefixes(expUniverse)
	n := cfg.scaled(20000, 500)
	delta := 0.1
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		p := core.Params{Eps: eps, Delta: delta, N: n}
		rate := core.BernoulliRate(p, sys.LogCardinality())
		suite := adversarySuite(n)
		for _, name := range adversaryOrder {
			est := core.EstimateRobustnessWorkers(
				func() game.Sampler { return sampler.NewBernoulli[int64](rate) },
				suite[name], sys, p, cfg.trials(), cfg.Workers, root.Split(),
			)
			t.AddRow(eps, name, rate, rate*float64(n), est.Failure.Rate(), est.Errors.Mean, est.Errors.Max, delta)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: fail-rate <= theory-delta in every row; max-err typically well below eps (the bound has slack)",
		fmt.Sprintf("n=%d, trials=%d per row", n, cfg.trials()))
	return t
}

// ExpE2 is the reservoir analogue of E1 at k = 2(ln|R| + ln(2/delta))/eps^2.
func ExpE2(cfg Config) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Reservoir robustness at the Theorem 1.2 size",
		Source:  "Theorem 1.2 (second bullet); prefix system over U = [2^20]",
		Columns: []string{"eps", "adversary", "k", "fail-rate", "mean-err", "max-err", "theory-delta"},
	}
	root := rng.New(cfg.Seed + 1)
	sys := setsystem.NewPrefixes(expUniverse)
	n := cfg.scaled(20000, 500)
	delta := 0.1
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		p := core.Params{Eps: eps, Delta: delta, N: n}
		k := core.ReservoirSize(p, sys.LogCardinality())
		suite := adversarySuite(n)
		for _, name := range adversaryOrder {
			est := core.EstimateRobustnessWorkers(
				func() game.Sampler { return sampler.NewReservoir[int64](k) },
				suite[name], sys, p, cfg.trials(), cfg.Workers, root.Split(),
			)
			t.AddRow(eps, name, k, est.Failure.Rate(), est.Errors.Mean, est.Errors.Max, delta)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: fail-rate <= theory-delta in every row",
		fmt.Sprintf("n=%d, trials=%d per row", n, cfg.trials()))
	return t
}

// ExpE3 reproduces the Section 5 attack on BernoulliSample over an
// unbounded universe (exact order-token simulation): the final sample is
// exactly the |S| smallest elements, so the prefix error is 1 - |S|/n,
// exceeding 1/2 whp. The required-ln(N) column shows why Theorem 1.3 needs
// |R| exponential in n: a direct integer simulation would need a universe
// far beyond 2^63.
func ExpE3(cfg Config) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Bisection attack breaks under-sized Bernoulli sampling",
		Source:  "Theorem 1.3(1), Section 5, Figure 3",
		Columns: []string{"n", "p", "E[|S|]", "frac err>1/2", "mean-err", "smallest-invariant", "required-lnN"},
	}
	root := rng.New(cfg.Seed + 2)
	for _, nBase := range []int{2000, 5000, 10000, 20000} {
		n := cfg.scaled(nBase, 200)
		p := 2 * math.Log(float64(n)) / float64(n)
		errs := make([]float64, cfg.trials())
		overHalf := make([]bool, cfg.trials())
		prefixOK := make([]bool, cfg.trials())
		sizes := make([]float64, cfg.trials())
		cfg.forEachTrial(root, func(trial int, r *rng.RNG) {
			res := adversary.RunExactBisectionBernoulli(n, p, r)
			d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
			errs[trial] = d.Err
			overHalf[trial] = d.Err > 0.5
			prefixOK[trial] = res.SampleIsPrefixOfAdmitted
			sizes[trial] = float64(len(res.Sample))
		})
		broke := countTrue(overHalf)
		invariant := countTrue(prefixOK)
		sizeSum := 0.0
		for _, s := range sizes {
			sizeSum += s
		}
		pp := math.Max(p, math.Log(float64(n))/float64(n))
		t.AddRow(n, p, sizeSum/float64(cfg.trials()),
			float64(broke)/float64(cfg.trials()), stats.Mean(errs),
			fmt.Sprintf("%d/%d", invariant, cfg.trials()),
			adversary.RequiredLogUniverse(n, pp))
	}
	t.Notes = append(t.Notes,
		"expected shape: frac err>1/2 ~= 1 at every n (Theorem 1.3 guarantees >= 1/2); smallest-invariant must be all trials",
		"required-lnN >> 43.7 = ln(2^63): the attack needs universes no int64 simulation can hold, matching the paper's 'theoretical only' discussion")
	return t
}

// ExpE4 is the reservoir attack: sample is confined to the k' smallest
// elements with k' <= 4k ln n whp, so the error is ~1 - k'/n.
func ExpE4(cfg Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Bisection attack breaks under-sized reservoir sampling",
		Source:  "Theorem 1.3(2), Section 5",
		Columns: []string{"n", "k", "mean-k'", "4k*ln(n)", "frac k'<=4klnn", "frac err>1/2", "mean-err"},
	}
	root := rng.New(cfg.Seed + 3)
	n := cfg.scaled(10000, 500)
	for _, k := range []int{5, 10, 20, 40} {
		errs := make([]float64, cfg.trials())
		overHalf := make([]bool, cfg.trials())
		inBound := make([]bool, cfg.trials())
		kPrimes := make([]float64, cfg.trials())
		cfg.forEachTrial(root, func(trial int, r *rng.RNG) {
			res := adversary.RunExactBisectionReservoir(n, k, r)
			d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
			errs[trial] = d.Err
			overHalf[trial] = d.Err > 0.5
			kPrimes[trial] = float64(res.TotalAdmitted)
			inBound[trial] = float64(res.TotalAdmitted) <= 4*float64(k)*math.Log(float64(n))
		})
		broke := countTrue(overHalf)
		within := countTrue(inBound)
		kPrimeSum := 0.0
		for _, kp := range kPrimes {
			kPrimeSum += kp
		}
		t.AddRow(n, k, kPrimeSum/float64(cfg.trials()), 4*float64(k)*math.Log(float64(n)),
			float64(within)/float64(cfg.trials()),
			float64(broke)/float64(cfg.trials()), stats.Mean(errs))
	}
	t.Notes = append(t.Notes,
		"expected shape: frac err>1/2 ~= 1 while 4k ln n << n; mean-k' tracks k(1+ln(n/k)) below the 4k ln n bound")
	return t
}

// ExpE5 compares the plain Theorem 1.2 reservoir size against the Theorem
// 1.4 continuous size: only the latter controls the error at every prefix.
func ExpE5(cfg Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Continuous robustness needs the Theorem 1.4 size",
		Source:  "Theorem 1.4; checkpoint schedule from its proof",
		Columns: []string{"eps", "sizing", "k", "fail-rate", "mean-maxPrefixErr", "max-maxPrefixErr", "theory-delta"},
	}
	root := rng.New(cfg.Seed + 4)
	sys := setsystem.NewPrefixes(expUniverse)
	n := cfg.scaled(20000, 500)
	delta := 0.1
	for _, eps := range []float64{0.2, 0.3} {
		p := core.Params{Eps: eps, Delta: delta, N: n}
		sizes := []struct {
			label string
			k     int
		}{
			{"plain-thm1.2", core.ReservoirSize(p, sys.LogCardinality())},
			{"continuous-thm1.4", core.ContinuousReservoirSize(p, sys.LogCardinality())},
		}
		for _, s := range sizes {
			est := core.EstimateContinuousRobustnessWorkers(
				func() game.Sampler { return sampler.NewReservoir[int64](s.k) },
				func() game.Adversary { return adversary.NewStaticUniform(expUniverse) },
				sys, p, s.k, cfg.trials(), cfg.Workers, root.Split(),
			)
			t.AddRow(eps, s.label, s.k, est.Failure.Rate(), est.Errors.Mean, est.Errors.Max, delta)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: the continuous (larger) k keeps fail-rate <= delta; the plain k shows a higher prefix failure rate",
		"per the paper, BernoulliSample cannot be continuously robust at all (footnote 4), hence only reservoir rows")
	return t
}

// ExpE10 reproduces the introduction's median attack: after the bisection
// process, the sample median sits near the |S|/2-th smallest stream
// element instead of the n/2-th — maximal median displacement.
func ExpE10(cfg Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "The introduction's median attack displaces the sample median",
		Source:  "Section 1, 'Attacking sampling algorithms'",
		Columns: []string{"n", "p", "E[|S|]", "mean sample-median-rank/n", "ideal", "mean displacement"},
	}
	root := rng.New(cfg.Seed + 5)
	for _, nBase := range []int{5000, 20000} {
		n := cfg.scaled(nBase, 500)
		p := 4 * math.Log(float64(n)) / float64(n)
		trialRanks := make([]float64, cfg.trials())
		trialSizes := make([]float64, cfg.trials())
		nonEmpty := make([]bool, cfg.trials())
		cfg.forEachTrial(root, func(trial int, r *rng.RNG) {
			res := adversary.RunExactBisectionBernoulli(n, p, r)
			if len(res.Sample) == 0 {
				return
			}
			med := sampler.SortedCopy(res.Sample)[len(res.Sample)/2]
			// Stream values are ranks 1..n, so the median's rank is
			// its value.
			trialRanks[trial] = float64(med) / float64(n)
			trialSizes[trial] = float64(len(res.Sample))
			nonEmpty[trial] = true
		})
		var ranks, sizes []float64
		for trial, ok := range nonEmpty {
			if ok {
				ranks = append(ranks, trialRanks[trial])
				sizes = append(sizes, trialSizes[trial])
			}
		}
		meanRank := stats.Mean(ranks)
		t.AddRow(n, p, stats.Mean(sizes), meanRank, 0.5, 0.5-meanRank)
	}
	t.Notes = append(t.Notes,
		"expected shape: sample-median-rank/n ~= |S|/(2n) ~ 0, i.e. displacement ~ 1/2 — the sample median is near the stream minimum")
	return t
}

// ExpE11 sweeps the reservoir size under the unbounded-universe attack to
// exhibit the crossover the Section 5 analysis predicts. The attacked
// sample lies among the k' smallest stream elements with
// E[k'] = k (1 + ln(n/k)), so the prefix error is ~ 1 - k'/n: the attack
// wins (error > eps) while k (1 + ln(n/k)) < (1-eps) n and loses above.
func ExpE11(cfg Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Static-vs-adaptive gap and the k(1+ln(n/k)) ~ (1-eps)n crossover",
		Source:  "Section 1.1 discussion; Theorems 1.2 + 1.3; Section 5 k' analysis",
		Columns: []string{"k", "k/crossover", "adversary", "fail-rate(eps=0.3)", "mean-err"},
	}
	root := rng.New(cfg.Seed + 6)
	n := cfg.scaled(20000, 2000)
	eps := 0.3
	crossover := float64(solveAttackCrossover(n, eps))
	staticK := core.StaticReservoirSize(core.Params{Eps: eps, Delta: 0.1, N: n}, 1)
	ks := []int{staticK, int(crossover / 4), int(crossover), int(crossover * 3)}
	for _, k := range ks {
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		// Adaptive row: exact unbounded-universe attack.
		errs := make([]float64, cfg.trials())
		overEps := make([]bool, cfg.trials())
		cfg.forEachTrial(root, func(trial int, r *rng.RNG) {
			res := adversary.RunExactBisectionReservoir(n, k, r)
			d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
			errs[trial] = d.Err
			overEps[trial] = d.Err > eps
		})
		broke := countTrue(overEps)
		t.AddRow(k, float64(k)/crossover, "adaptive-bisection",
			float64(broke)/float64(cfg.trials()), stats.Mean(errs))

		// Static row: same k against a static uniform stream.
		est := core.EstimateRobustnessWorkers(
			func() game.Sampler { return sampler.NewReservoir[int64](k) },
			func() game.Adversary { return adversary.NewStaticUniform(expUniverse) },
			setsystem.NewPrefixes(expUniverse),
			core.Params{Eps: eps, Delta: 0.1, N: n}, cfg.trials(), cfg.Workers, root.Split(),
		)
		t.AddRow(k, float64(k)/crossover, "static-uniform", est.Failure.Rate(), est.Errors.Mean)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("crossover where k(1+ln(n/k)) = (1-eps)n: k ~ %.0f; adaptive rows fail below it and pass above; static rows pass at every k >= the VC-sized %d", crossover, staticK),
		"this is the paper's headline gap: VC-sized samples suffice statically but adaptivity demands the cardinality term (here unbounded, so no finite ln|R| certifies safety below the crossover)")
	return t
}

// solveAttackCrossover returns the k at which the mean admitted count
// k (1 + ln(n/k)) reaches (1-eps) n, by binary search.
func solveAttackCrossover(n int, eps float64) int {
	target := (1 - eps) * float64(n)
	lo, hi := 1, n
	for lo < hi {
		mid := (lo + hi) / 2
		kPrime := float64(mid) * (1 + math.Log(float64(n)/float64(mid)))
		if kPrime < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ExpE15 validates the Section 4 martingale structure: zero drift, step
// bounds never violated, and the realized deviation |Z_n| sits below the
// Freedman-bound quantile.
func ExpE15(cfg Config) *Table {
	t := &Table{
		ID:      "E15",
		Title:   "Martingale structure of Z_i and Freedman-bound slack",
		Source:  "Section 4, Claims 4.2 and 4.3, Lemma 3.3",
		Columns: []string{"sampler", "adversary", "mean Z_n", "sd Z_n", "step-violations", "frac |Z_n|<=lambda", "freedman lambda(delta=0.1)"},
	}
	root := rng.New(cfg.Seed + 7)
	n := cfg.scaled(5000, 500)

	type scenario struct {
		sampler string
		adv     string
	}
	scenarios := []scenario{
		{"bernoulli", "static-uniform"},
		{"bernoulli", "median-pusher"},
		{"reservoir", "static-uniform"},
		{"reservoir", "median-pusher"},
	}
	for _, sc := range scenarios {
		// The fixed range R tracks the region the adversary actually
		// exercises: the lower half for static streams, the top quarter
		// for the median pusher (which pushes mass upward but straddles
		// the 3/4 boundary) — so Z_i has non-degenerate variance in
		// every scenario.
		inR := func(x int64) bool { return x <= expUniverse/2 }
		if sc.adv == "median-pusher" {
			inR = func(x int64) bool { return x > expUniverse/4*3 }
		}
		finals := make([]float64, cfg.trials())
		violated := make([]bool, cfg.trials())
		lambdas := make([]float64, cfg.trials())
		cfg.forEachTrial(root, func(trial int, r *rng.RNG) {
			var adv game.Adversary
			if sc.adv == "static-uniform" {
				adv = adversary.NewStaticUniform(expUniverse)
			} else {
				adv = adversary.NewMedianPusher(expUniverse)
			}
			adv.Reset()
			advRNG := r.Split()
			sampRNG := r.Split()
			var history []int64
			lastAdmitted := false
			switch sc.sampler {
			case "bernoulli":
				p := 0.05
				m := core.NewBernoulliMartingale(n, p, inR)
				bs := sampler.NewBernoulli[int64](p)
				for i := 1; i <= n; i++ {
					obs := game.Observation{Round: i, N: n, Sample: bs.View(), LastAdmitted: lastAdmitted, History: history}
					x := adv.Next(obs, advRNG)
					history = append(history, x)
					lastAdmitted = bs.Offer(x, sampRNG)
					m.Observe(x, lastAdmitted)
				}
				finals[trial] = m.Z()
				violated[trial] = m.MaxStepViolation() > 1e-9
				lambdas[trial] = m.FreedmanLambda(0.1)
			case "reservoir":
				k := 100
				m := core.NewReservoirMartingale(k, inR)
				rs := sampler.NewReservoir[int64](k)
				for i := 1; i <= n; i++ {
					obs := game.Observation{Round: i, N: n, Sample: rs.View(), LastAdmitted: lastAdmitted, History: history}
					x := adv.Next(obs, advRNG)
					history = append(history, x)
					lastAdmitted = rs.Offer(x, sampRNG)
					m.Observe(x, lastAdmitted, rs.View())
				}
				finals[trial] = m.Z()
				violated[trial] = m.MaxStepViolation() > 1e-9
				lambdas[trial] = m.FreedmanLambda(0.1)
			}
		})
		violations := countTrue(violated)
		lambda := lambdas[cfg.trials()-1]
		s := stats.Summarize(finals)
		within := 0
		for _, z := range finals {
			if math.Abs(z) <= lambda {
				within++
			}
		}
		t.AddRow(sc.sampler, sc.adv, s.Mean, s.StdDev, violations,
			float64(within)/float64(len(finals)), lambda)
	}
	t.Notes = append(t.Notes,
		"expected shape: mean Z_n ~ 0 relative to sd (martingale, no drift even vs adaptive adversaries); step-violations = 0; frac |Z_n|<=lambda >= 0.9 (Freedman at delta=0.1; the bound is loose, so typically 1.0)")
	return t
}
