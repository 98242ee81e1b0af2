package game

import (
	"reflect"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// recordingSampler wraps one of the sampler families and snapshots the
// sample after every Offer and every OfferBatch, so tests can recompute
// checkpoint verdicts independently. With SpanChunkCap = 1 the span path
// offers one round per batch, so on either path snapshots[i] is the sample
// after round i+1.
type recordingSampler struct {
	Sampler
	snapshots [][]int64
}

func (rs *recordingSampler) Offer(x int64, r *rng.RNG) bool {
	admitted := rs.Sampler.Offer(x, r)
	rs.snapshots = append(rs.snapshots, slices.Clone(rs.View()))
	return admitted
}

func (rs *recordingSampler) OfferBatch(xs []int64, r *rng.RNG) int {
	admitted := rs.Sampler.(BatchSampler).OfferBatch(xs, r)
	rs.snapshots = append(rs.snapshots, slices.Clone(rs.View()))
	return admitted
}

func (rs *recordingSampler) Reset() {
	rs.Sampler.Reset()
	rs.snapshots = nil
}

// uniformStream is a non-adaptive adversary over a narrow universe: a
// StreamGenerator, so its games take the span path.
type uniformStream struct{ universe int64 }

func (uniformStream) Name() string { return "uniform-stream" }
func (uniformStream) Reset()       {}

func (u uniformStream) Next(_ Observation, r *rng.RNG) int64 { return 1 + r.Int63n(u.universe) }

func (u uniformStream) GenerateStream(n int, r *rng.RNG) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = u.Next(Observation{}, r)
	}
	return out
}

func continuousSystems() []setsystem.SetSystem {
	const u = 1 << 10
	return []setsystem.SetSystem{
		setsystem.NewPrefixes(u),
		setsystem.NewIntervals(u),
		setsystem.NewSingletons(u),
		setsystem.NewSuffixes(u),
	}
}

// TestRunContinuousMatchesOneShotVerdicts plays every sampler family
// against an adaptive and a static adversary over all four set systems.
// Judged once, the continuous game is Run bit for bit, whether its schedule
// is {n} or empty. Judged at a checkpoint schedule, every verdict the
// incremental engine produced equals the one-shot MaxDiscrepancy of the
// recorded prefix and sample, on the round path and the span path alike.
func TestRunContinuousMatchesOneShotVerdicts(t *testing.T) {
	defer func(old int) { SpanChunkCap = old }(SpanChunkCap)
	SpanChunkCap = 1
	const n = 200
	for _, sys := range continuousSystems() {
		for _, fam := range samplerFamilies {
			for _, adv := range []Adversary{&zigzag{universe: 1 << 10}, uniformStream{universe: 48}} {
				label := sys.Name() + "/" + fam.name + "/" + adv.Name()
				once := Run(fam.mk(), adv, sys, n, 0.3, rng.New(99))
				for _, cps := range [][]int{{n}, nil} {
					got := RunContinuous(fam.mk(), adv, sys, n, 0.3, cps, rng.New(99)).Result
					if !reflect.DeepEqual(got, once) {
						t.Fatalf("%s: RunContinuous with schedule %v gives %v, Run gives %v", label, cps, got, once)
					}
				}

				rec := &recordingSampler{Sampler: fam.mk()}
				res := RunContinuous(rec, adv, sys, n, 0.3, MustCheckpoints(1, n, 0.25), rng.New(99))
				if len(rec.snapshots) != n {
					t.Fatalf("%s: %d snapshots, want one per round", label, len(rec.snapshots))
				}
				if len(res.PrefixErrors) < 2 || res.PrefixErrors[len(res.PrefixErrors)-1].Round != n {
					t.Fatalf("%s: checkpoints %v do not end at round %d", label, res.PrefixErrors, n)
				}
				for _, pe := range res.PrefixErrors {
					want := sys.MaxDiscrepancy(res.Stream[:pe.Round], rec.snapshots[pe.Round-1])
					if pe.Err != want.Err {
						t.Fatalf("%s: round %d incremental err %v != one-shot %v",
							label, pe.Round, pe.Err, want.Err)
					}
				}
				if res.Discrepancy != sys.MaxDiscrepancy(res.Stream, res.Sample) {
					t.Fatalf("%s: final discrepancy mismatch", label)
				}
			}
		}
	}
}

// TestNormalizeCheckpoints covers the sorted-cursor schedule: unsorted
// input, duplicates, and out-of-range rounds.
func TestNormalizeCheckpoints(t *testing.T) {
	got := normalizeCheckpoints([]int{14, 3, 3, -2, 0, 99, 7, 10}, 10)
	want := []int{3, 7, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeCheckpoints = %v, want %v", got, want)
	}
	if got := normalizeCheckpoints(nil, 5); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("empty checkpoints = %v, want [5]", got)
	}
}

// TestRunContinuousUnsortedCheckpoints verifies that an unsorted checkpoint
// slice produces the same trajectory as its sorted equivalent.
func TestRunContinuousUnsortedCheckpoints(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 10)
	run := func(cps []int) ContinuousResult {
		return RunContinuous(sampler.NewReservoir[int64](5), &zigzag{universe: 1 << 10},
			sys, 40, 0.5, cps, rng.New(3))
	}
	sorted := run([]int{5, 10, 20, 40})
	shuffled := run([]int{40, 20, 5, 10, 10, 20})
	if !reflect.DeepEqual(sorted, shuffled) {
		t.Fatal("checkpoint order affected the game outcome")
	}
}

// zigzag is a deterministic adaptive adversary for tests: it alternates
// between low and high values, biased by what it sees in the sample, and
// repeats values often enough to exercise duplicate handling.
type zigzag struct {
	universe int64
	i        int
}

func (z *zigzag) Name() string { return "zigzag" }
func (z *zigzag) Reset()       { z.i = 0 }

func (z *zigzag) Next(obs Observation, r *rng.RNG) int64 {
	z.i++
	if len(obs.Sample) > 0 && z.i%3 == 0 {
		// Echo a sampled element to force duplicates across stream and
		// sample.
		return obs.Sample[z.i%len(obs.Sample)]
	}
	if z.i%2 == 0 {
		return 1 + r.Int63n(z.universe/4)
	}
	return z.universe - r.Int63n(z.universe/4)
}
