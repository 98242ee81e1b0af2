// Deterministic parallel Monte-Carlo trials.
//
// Every robustness number the experiment harness reports is an average over
// independent adaptive games, and the games of one estimate share no state:
// each trial owns its own sampler, adversary and RNG stream. The trial loop
// is therefore embarrassingly parallel — PROVIDED determinism is preserved.
// The rule that makes parallel output byte-identical to the historical
// serial loop is:
//
//  1. split the per-trial RNGs sequentially from the root, in trial order,
//     exactly as the serial loop did (samplers and adversaries are built by
//     their factories inside the workers — factories never touch the root,
//     so construction order cannot affect results); then
//  2. fan the game-playing out across workers, with every trial writing only
//     to its own index of the result slices; then
//  3. reduce the indexed results in trial order.
//
// ForEachSplitTrial does steps 1 and 2; every Monte-Carlo loop that draws
// its trials from one root goes through it. Nothing about the arithmetic
// changes — only wall-clock time.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"robustsample/internal/rng"
)

// ForEachSplitTrial splits one RNG per trial from root, in trial order, and
// then runs fn(worker, trial, r) for every trial across the worker pool of
// ForEachTrialOnWorker, r being the trial's own stream. The trials' results
// are a function of root alone, whatever the worker count.
func ForEachSplitTrial(trials, workers int, root *rng.RNG, fn func(worker, trial int, r *rng.RNG)) {
	rngs := make([]*rng.RNG, trials)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	ForEachTrialOnWorker(trials, workers, func(worker, trial int) {
		fn(worker, trial, rngs[trial])
	})
}

// ForEachTrial runs fn(trial) for trial = 0..trials-1 across a worker pool.
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 runs inline with
// no goroutines. fn must be safe to call concurrently and should write its
// results to per-trial storage; ForEachTrial returns once every trial has
// completed.
func ForEachTrial(trials, workers int, fn func(trial int)) {
	ForEachTrialOnWorker(trials, workers, func(_, trial int) { fn(trial) })
}

// ForEachTrialOnWorker is ForEachTrial with the worker's identity (0 <=
// worker < effective pool size) passed alongside the trial index. Trial
// loops use it to reuse per-worker scratch state — samplers, adversaries,
// incremental accumulators — across the games a worker plays: each game
// fully Resets the state, so results stay byte-identical to fresh
// construction while the allocation cost is paid once per worker instead of
// once per trial.
func ForEachTrialOnWorker(trials, workers int, fn func(worker, trial int)) {
	workers = WorkerCount(trials, workers)
	if workers <= 1 {
		for i := 0; i < trials; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= trials {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// WorkerCount resolves the effective pool size ForEachTrialOnWorker will
// use, so callers can pre-size per-worker state.
func WorkerCount(trials, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
