package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"robustsample/internal/adversary"
	"robustsample/internal/core"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// Game workload shape: the plain Theorem 1.2 row of experiments E2 and E5
// (k = 843 at n = 20,000), played as the continuous game with the
// Theorem 1.4 checkpoint schedule.
const (
	gameEps       = 0.2
	gameDelta     = 0.1
	gameUniverse  = int64(1) << 20
	gameWorkers   = 2
	gameMaxTrials = 1 << 12 // trial seeds drawn up front, far more than a run completes
	gameReplays   = 2       // trials 0..gameReplays-1 are replayed serially and compared
)

// gameSpec is the game every trial plays.
type gameSpec struct {
	sys  setsystem.Prefixes
	n, k int
	cps  []int
}

func newGameSpec(n int) gameSpec {
	sys := setsystem.NewPrefixes(gameUniverse)
	k := core.ReservoirSize(core.Params{Eps: gameEps, Delta: gameDelta, N: n}, sys.LogCardinality())
	return gameSpec{sys: sys, n: n, k: k, cps: game.MustCheckpoints(k, n, gameEps/4)}
}

func (g gameSpec) play(s game.Sampler, adv game.Adversary, r *rng.RNG, acc *setsystem.Accumulator) game.ContinuousResult {
	return game.RunContinuousWith(s, adv, g.sys, g.n, gameEps, g.cps, r, acc)
}

// gameSeeds draws every trial's seed.
func gameSeeds(seed uint64) []uint64 {
	r := rng.NewWithStream(seed, streamGame)
	seeds := make([]uint64, gameMaxTrials)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return seeds
}

// gameWorker is one worker's players, reused across its trials.
type gameWorker struct {
	s   game.Sampler
	adv game.Adversary
	acc *setsystem.Accumulator
	ln  *lane
	req int64 // the trial being played: the request id of its spans
}

// tracedSampler records a span around each scalar Offer the game makes.
type tracedSampler struct {
	*sampler.Reservoir[int64]
	w *gameWorker
}

func (s tracedSampler) Offer(x int64, r *rng.RNG) bool {
	s.w.ln.begin("sampler.Reservoir.Offer", s.w.req)
	ok := s.Reservoir.Offer(x, r)
	s.w.ln.end()
	return ok
}

// tracedAdversary records a span around each adversary decision.
type tracedAdversary struct {
	*adversary.MedianPusher
	w *gameWorker
}

func (a tracedAdversary) Next(obs game.Observation, r *rng.RNG) int64 {
	a.w.ln.begin("adversary.MedianPusher.Next", a.w.req)
	x := a.MedianPusher.Next(obs, r)
	a.w.ln.end()
	return x
}

// gameSetup builds each worker's sampler, adversary and pre-sized
// accumulator, and every trial's RNG.
func gameSetup(g gameSpec, seeds []uint64, tr *tracer) ([]*gameWorker, []*rng.RNG) {
	workers := make([]*gameWorker, gameWorkers)
	for i := range workers {
		w := &gameWorker{acc: g.sys.NewAccumulator(), ln: tr.lane(fmt.Sprintf("game/worker%d", i))}
		w.acc.Reserve(g.n)
		res := sampler.NewReservoir[int64](g.k)
		adv := adversary.NewMedianPusher(gameUniverse)
		w.s, w.adv = res, adv
		if w.ln != nil {
			w.s, w.adv = tracedSampler{res, w}, tracedAdversary{adv, w}
		}
		workers[i] = w
	}
	rngs := make([]*rng.RNG, len(seeds))
	for i, s := range seeds {
		rngs[i] = rng.New(s)
	}
	return workers, rngs
}

// sameGame reports whether two plays of one trial agree exactly.
func sameGame(a, b game.ContinuousResult) bool {
	return slices.Equal(a.Stream, b.Stream) && slices.Equal(a.Sample, b.Sample) &&
		slices.Equal(a.PrefixErrors, b.PrefixErrors) && a.Discrepancy == b.Discrepancy &&
		a.MaxPrefixErr == b.MaxPrefixErr && a.FirstViolation == b.FirstViolation
}

// gamePass is what one game pass measured.
type gamePass struct {
	endToEnd
	checkpoints int     // verdicts per trial
	idleShare   float64 // 1 − Σ worker spans / (workers × wall) (traced only)
}

// runGame runs the game workload: trials are spread over two workers by
// core.ForEachTrialOnWorker; each worker plays a trial, then re-checks its
// final verdict with a one-shot MaxDiscrepancy (the query), then starts the
// next trial, until the timed phase ends.
func runGame(cfg config, rep *report, nsetup int, tr *tracer) (gamePass, error) {
	p := gamePass{endToEnd: endToEnd{unit: "round"}}
	g := newGameSpec(cfg.sizes.gameN)
	seeds := gameSeeds(cfg.seed)
	var (
		workers []*gameWorker
		rngs    []*rng.RNG
	)
	for i := 0; i < nsetup; i++ {
		workers, rngs = nil, nil
		runtime.GC()
		t0 := time.Now()
		workers, rngs = gameSetup(g, seeds, tr)
		p.setup = append(p.setup, time.Since(t0))
	}

	type trialOut struct {
		done, ok, verdictOK bool
		op, query           interval
	}
	outs := make([]trialOut, len(seeds))
	var kept [gameReplays]game.ContinuousResult
	runtime.GC()
	gc0 := readGC()
	start := time.Now()
	deadline := start.Add(cfg.dur)
	core.ForEachTrialOnWorker(len(seeds), gameWorkers, func(wi, trial int) {
		t0 := time.Now()
		if t0.After(deadline) {
			return
		}
		w := workers[wi]
		w.req = int64(trial)
		w.ln.begin("game.RunContinuousWith", w.req)
		res := g.play(w.s, w.adv, rngs[trial], w.acc)
		w.ln.end()
		t1 := time.Now()
		w.ln.begin("setsystem.Prefixes.MaxDiscrepancy", w.req)
		d := g.sys.MaxDiscrepancy(res.Stream, res.Sample)
		w.ln.end()
		outs[trial] = trialOut{
			done: true, ok: res.OK, verdictOK: d == res.Discrepancy,
			op:    interval{t0.Sub(start), t1.Sub(t0)},
			query: interval{t1.Sub(start), time.Since(t1)},
		}
		if trial < gameReplays {
			kept[trial] = res
		}
	})
	p.wall = time.Since(start)
	p.gc = gc0.since()

	var ops, queries []interval
	failures := 0
	for i, o := range outs {
		if !o.done {
			continue
		}
		ops = append(ops, o.op)
		queries = append(queries, o.query)
		if !o.ok {
			failures++
		}
		rep.check(o.verdictOK, "game: trial %d: one-shot MaxDiscrepancy differs from the accumulator's final verdict", i)
	}
	completed := len(ops)
	p.units = float64(completed * g.n)
	slices.SortFunc(ops, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	slices.SortFunc(queries, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	p.rates = windowRates(ops, float64(g.n), p.wall, 1)
	p.op = summarize("game.RunContinuousWith", ops)
	p.query = summarize("Prefixes.MaxDiscrepancy", queries)
	rep.check(completed > 0, "game: no trial completed")
	rep.check(float64(failures) <= gameDelta*float64(completed), "game: %d of %d trials failed, above delta %.2f", failures, completed, gameDelta)
	for i := 0; i < gameReplays && outs[i].done; i++ {
		replay := g.play(sampler.NewReservoir[int64](g.k), adversary.NewMedianPusher(gameUniverse), rng.New(seeds[i]), nil)
		rep.check(sameGame(replay, kept[i]), "game: trial %d differs from its serial replay", i)
	}
	if outs[0].done {
		p.checkpoints = len(kept[0].PrefixErrors)
	}
	if tr != nil {
		var busy time.Duration
		for _, w := range workers {
			busy += w.ln.total("game.RunContinuousWith") + w.ln.total("setsystem.Prefixes.MaxDiscrepancy")
		}
		p.idleShare = 1 - busy.Seconds()/(gameWorkers*p.wall.Seconds())
	}

	// Release the benchmark's own inputs and samples before reading the heap.
	seeds, outs, kept, ops, queries = nil, nil, [gameReplays]game.ContinuousResult{}, nil, nil
	p.heap = liveHeap()
	runtime.KeepAlive(workers)
	runtime.KeepAlive(rngs)
	return p, nil
}
