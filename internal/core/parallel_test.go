package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"robustsample/internal/adversary"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

func TestForEachTrialCoversEveryTrial(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [37]atomic.Int32
		ForEachTrial(len(hits), workers, func(trial int) {
			hits[trial].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: trial %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForEachSplitTrialPreSplits: trial i gets the i-th split of the root
// in trial order, on a worker of the resolved pool, for every worker count.
func TestForEachSplitTrialPreSplits(t *testing.T) {
	const trials = 23
	want := make([]uint64, trials)
	root := rng.New(11)
	for i := range want {
		want[i] = root.Split().Uint64()
	}
	for _, workers := range []int{0, 1, 3, 16} {
		got := make([]uint64, trials)
		ForEachSplitTrial(trials, workers, rng.New(11), func(worker, trial int, r *rng.RNG) {
			if worker < 0 || worker >= WorkerCount(trials, workers) {
				t.Errorf("workers=%d: trial %d on worker %d", workers, trial, worker)
			}
			got[trial] = r.Uint64()
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: trial streams %v, want %v", workers, got, want)
		}
	}
}

// TestEstimateRobustnessParallelDeterminism is the determinism contract of
// the parallel Monte-Carlo engine: the estimate must be identical — every
// field, bit for bit — for any worker count, matching the serial loop.
func TestEstimateRobustnessParallelDeterminism(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 12)
	p := Params{Eps: 0.2, Delta: 0.1, N: 400}
	mkS := func() game.Sampler { return sampler.NewReservoir[int64](40) }
	mkA := func() game.Adversary { return adversary.NewStaticUniform(1 << 12) }

	serial := EstimateRobustnessWorkers(mkS, mkA, sys, p, 17, 1, rng.New(5))
	for _, workers := range []int{0, 2, 8} {
		par := EstimateRobustnessWorkers(mkS, mkA, sys, p, 17, workers, rng.New(5))
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d estimate differs from serial:\n%+v\nvs\n%+v", workers, par, serial)
		}
	}
}

func TestEstimateContinuousRobustnessParallelDeterminism(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 12)
	p := Params{Eps: 0.3, Delta: 0.1, N: 300}
	mkS := func() game.Sampler { return sampler.NewReservoir[int64](30) }
	mkA := func() game.Adversary { return adversary.NewStaticUniform(1 << 12) }

	serial := EstimateContinuousRobustnessWorkers(mkS, mkA, sys, p, 30, 11, 1, rng.New(9))
	for _, workers := range []int{0, 4} {
		par := EstimateContinuousRobustnessWorkers(mkS, mkA, sys, p, 30, 11, workers, rng.New(9))
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d estimate differs from serial:\n%+v\nvs\n%+v", workers, par, serial)
		}
	}
}
