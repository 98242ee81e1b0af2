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
	"robustsample/internal/shard"
	"robustsample/internal/stats"
)

// shardCounts returns the shard-count sweep for E18: the default ladder, or
// {1, Shards} when the -shards flag pins an explicit count (1 stays as the
// unsharded baseline).
func (c Config) shardCounts() []int {
	if c.Shards <= 0 {
		return []int{1, 2, 4, 8}
	}
	if c.Shards == 1 {
		return []int{1}
	}
	return []int{1, c.Shards}
}

// ExpE18 measures the sharded continuous-sampling engine: the Theorem 1.4
// continuous reservoir budget is split evenly across S shards, one stream is
// routed across them (every routing mode), and the coordinator's merged
// verdict — bit-identical to the one-shot discrepancy of the union stream vs
// the union sample — is checked at the Theorem 1.4 checkpoint schedule. A
// second arm runs the distributed-bisection attack against one shard,
// reporting how unrepresentative the target's local sample gets versus how
// well the merged coordinator sample holds up.
func ExpE18(cfg Config) *Table {
	t := &Table{
		ID:      "E18",
		Title:   "Sharded continuous sampling with mergeable verdicts",
		Source:  "Section 1.3, continuous/distributed sampling ([CTW16], [CMYZ12]); Theorem 1.4 sizing",
		Columns: []string{"arm", "router", "S", "n", "k/shard", "fail-rate", "mean-maxPrefixErr", "mean-targetKS", "mean-globalErr"},
	}
	root := rng.New(cfg.Seed + 18)
	sys := setsystem.NewPrefixes(expUniverse)
	n := cfg.scaled(20000, 500)
	eps, delta := 0.3, 0.1
	kTotal := core.ContinuousReservoirSize(core.Params{Eps: eps, Delta: delta, N: n}, sys.LogCardinality())
	cps := game.MustCheckpoints(1, n, eps/4)

	// Continuous arm: fixed TOTAL memory split across S shards (floor
	// division, so no S row ever exceeds the S=1 budget), showing what
	// sharding alone costs — thinner per-shard samples against per-shard
	// substreams; the merged verdict judges the union.
	for _, router := range shard.Routers() {
		for _, S := range cfg.shardCounts() {
			kShard := max(kTotal/S, 1)
			fails := make([]bool, cfg.trials())
			errs := make([]float64, cfg.trials())
			engines := make([]*shard.Engine, core.WorkerCount(cfg.trials(), cfg.Workers))
			core.ForEachSplitTrial(cfg.trials(), cfg.Workers, root, func(worker, trial int, r *rng.RNG) {
				eng := engines[worker]
				if eng == nil {
					// Shard ingest stays serial inside each engine: the
					// Monte-Carlo pool already saturates the CPUs.
					eng = shard.New(shard.Config{
						Shards: S,
						Router: router,
						System: sys,
						NewSampler: func(int) game.Sampler {
							return sampler.NewReservoir[int64](kShard)
						},
						Workers: 1,
					}, nil)
					engines[worker] = eng
				}
				res := game.RunSharded(eng, adversary.NewStaticUniform(expUniverse), n, eps, cps, r)
				fails[trial] = !res.OK
				errs[trial] = res.MaxPrefixErr
			})
			sum := stats.Summarize(errs)
			t.AddRow("continuous", router.Name(), S, n, kShard,
				float64(countTrue(fails))/float64(cfg.trials()), sum.Mean, "-", "-")
		}
	}

	// Attack arm: the Figure-3 bisection aimed at shard 0's Bernoulli
	// sampler through uniform routing (admission channel p/S), over an
	// unbounded universe where Theorem 1.3 says it must win.
	p := math.Max(0.02, 4*math.Log(float64(n))/float64(n))
	for _, S := range cfg.shardCounts() {
		targets := make([]float64, cfg.trials())
		globals := make([]float64, cfg.trials())
		cfg.forEachTrial(root, func(trial int, r *rng.RNG) {
			out := shard.RunTargetedBisectionUnbounded(S, n, p, r)
			targets[trial] = out.TargetVsStream
			globals[trial] = out.GlobalErr
		})
		t.AddRow("bisection-target", "uniform", S, n, fmt.Sprintf("p=%.3g", p),
			"-", "-", stats.Mean(targets), stats.Mean(globals))
	}

	t.Notes = append(t.Notes,
		"expected shape: continuous fail-rate stays <= delta for every router and S (the merged verdict judges the union sample at full size k)",
		"expected shape: bisection-target mean-targetKS approaches 1 (the target shard's local sample is poisoned) while mean-globalErr stays near the benign level — the other S-1 shards dilute the attack",
		"the merged verdict is bit-identical to a one-shot MaxDiscrepancy on the concatenated stream; see internal/shard's differential tests")
	return t
}
