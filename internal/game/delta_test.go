package game

import (
	"fmt"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// deltaCheckingAdversary submits values from a narrow universe (so samples
// hold duplicates and reservoirs evict) and checks the Observation delta
// contract every round: whenever DeltaKnown is set, the previous round's
// Sample plus Added minus Removed equals this round's Sample as multisets.
type deltaCheckingAdversary struct {
	t     *testing.T
	label string

	prev       []int64 // sorted copy of the previous round's Sample
	known      []bool  // known[i] = DeltaKnown at round i+1
	mismatches int
}

func (a *deltaCheckingAdversary) Name() string { return "delta-checking" }
func (a *deltaCheckingAdversary) Reset() {
	a.prev = a.prev[:0]
	a.known = a.known[:0]
	a.mismatches = 0
}

func (a *deltaCheckingAdversary) Next(obs Observation, r *rng.RNG) int64 {
	a.known = append(a.known, obs.DeltaKnown)
	cur := slices.Clone(obs.Sample)
	slices.Sort(cur)
	if obs.DeltaKnown {
		want := append(slices.Clone(a.prev), obs.Added...)
		slices.Sort(want)
		for _, x := range obs.Removed {
			i, ok := slices.BinarySearch(want, x)
			if !ok {
				a.t.Errorf("%s round %d: removed %d was not in the previous sample", a.label, obs.Round, x)
				a.mismatches++
				continue
			}
			want = slices.Delete(want, i, i+1)
		}
		if !slices.Equal(want, cur) && a.mismatches == 0 {
			a.t.Errorf("%s round %d: previous sample %+v added %v removed %v gives %v, sample is %v",
				a.label, obs.Round, a.prev, obs.Added, obs.Removed, want, cur)
			a.mismatches++
		}
	}
	a.prev = cur
	return 1 + r.Int63n(12)
}

// samplerFamilies lists the four sampler families.
var samplerFamilies = []struct {
	name string
	mk   func() Sampler
}{
	{"bernoulli", func() Sampler { return sampler.NewBernoulli[int64](0.3) }},
	{"reservoir", func() Sampler { return sampler.NewReservoir[int64](8) }},
	{"reservoirL", func() Sampler { return sampler.NewReservoirL[int64](8) }},
	{"with-replacement", func() Sampler { return sampler.NewWithReplacement[int64](8) }},
}

func TestObservationDeltaContract(t *testing.T) {
	const n = 300
	sys := setsystem.NewPrefixes(16)
	for _, ds := range samplerFamilies {
		for _, mode := range []string{"Run", "RunContinuousWith"} {
			for seed := uint64(1); seed <= 5; seed++ {
				label := fmt.Sprintf("%s/%s/seed%d", ds.name, mode, seed)
				adv := &deltaCheckingAdversary{t: t, label: label}
				if mode == "Run" {
					Run(ds.mk(), adv, sys, n, 0.5, rng.New(seed))
				} else {
					RunContinuousWith(ds.mk(), adv, sys, n, 0.5, MustCheckpoints(1, n, 0.1), rng.New(seed), sys.NewAccumulator())
				}
				if len(adv.known) != n {
					t.Fatalf("%s: adversary played %d rounds, want %d", label, len(adv.known), n)
				}
				if adv.known[0] {
					t.Fatalf("%s: DeltaKnown set on round 1", label)
				}
				for i, k := range adv.known[1:] {
					if !k {
						t.Fatalf("%s: DeltaKnown unset on round %d", label, i+2)
					}
				}
			}
		}
	}
}
