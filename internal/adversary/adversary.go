// Package adversary implements the adaptive strategies the paper analyzes
// and the static baselines the experiments compare against.
//
// The centerpiece is the Figure-3 bisection attack of Section 5: the
// adversary maintains a working range [a, b] inside the universe [1, N],
// submits x = floor(a + (1-p')(b-a)), and moves a up to x when x is sampled
// or b down to x when it is not. All previously sampled elements therefore
// stay below all non-sampled ones (Claim 5.2), making the sample maximally
// unrepresentative for the prefix set system.
//
// Static adversaries replay fixed workloads (uniform, sorted, Zipf,
// constant) and model the non-adaptive setting of the classical VC bound.
package adversary

import (
	"math"
	"slices"

	"robustsample/internal/game"
	"robustsample/internal/rng"
)

// Bisection is the Figure-3 attack. It is deterministic given the admission
// feedback: the only information it uses is whether the previous element was
// admitted, which the game exposes via Observation.LastAdmitted.
type Bisection struct {
	// Universe is N, the top of the ordered universe [1, N].
	Universe int64
	// PPrime is p' from Figure 3, the assumed admission rate; the split
	// point is a + (1-p')(b-a).
	PPrime float64

	a, b      int64
	exhausted bool
}

// NewBisectionBernoulli prepares the attack against BernoulliSample with
// rate p over a stream of length n, setting p' = max(p, ln n / n) exactly as
// Figure 3 does.
func NewBisectionBernoulli(universe int64, n int, p float64) *Bisection {
	pp := math.Max(p, math.Log(float64(n))/float64(n))
	return newBisection(universe, pp)
}

// NewBisectionReservoir prepares the attack against ReservoirSample with
// memory k over a stream of length n. The reservoir admits roughly
// A = 2k ln n elements in total (Section 5); each admission shrinks the
// working range by p' and each rejection by 1-p', so the precision cost is
// minimized at p' = A/(A+n). Note that for interesting (n, k) this still
// requires a universe far beyond int64 — use RunExactBisectionReservoir for
// those regimes; this constructor exists for small-scale demonstrations.
func NewBisectionReservoir(universe int64, n int, k int) *Bisection {
	admissions := 2 * float64(k) * math.Log(float64(n))
	pp := admissions / (admissions + float64(n))
	if pp > 0.5 {
		pp = 0.5
	}
	if floor := math.Log(float64(n)) / float64(n); pp < floor {
		pp = floor
	}
	return newBisection(universe, pp)
}

// NewBisection prepares the attack with an explicit p'. The intro's median
// attack is the special case p' = 1/2 (split at the midpoint).
func NewBisection(universe int64, pPrime float64) *Bisection {
	return newBisection(universe, pPrime)
}

func newBisection(universe int64, pPrime float64) *Bisection {
	if universe < 2 {
		panic("adversary: bisection needs universe size >= 2")
	}
	if pPrime <= 0 || pPrime >= 1 {
		panic("adversary: bisection needs 0 < p' < 1")
	}
	bi := &Bisection{Universe: universe, PPrime: pPrime}
	bi.Reset()
	return bi
}

// Name implements game.Adversary.
func (bi *Bisection) Name() string { return "bisection" }

// Reset restores the full working range [1, N].
func (bi *Bisection) Reset() {
	bi.a, bi.b = 1, bi.Universe
	bi.exhausted = false
}

// Next implements game.Adversary, executing one step of Figure 3.
func (bi *Bisection) Next(obs game.Observation, _ *rng.RNG) int64 {
	if obs.Round > 1 {
		// Fold in the feedback for the previous submission.
		prev := obs.History[len(obs.History)-1]
		if obs.LastAdmitted {
			bi.a = prev
		} else {
			bi.b = prev
		}
	}
	if bi.b-bi.a < 2 {
		// No integer strictly between a and b remains; the attack has
		// run out of precision (this is exactly the regime Theorem 1.3
		// excludes by requiring N >= n^(6 ln n) scaled appropriately).
		bi.exhausted = true
		if bi.b > bi.a {
			return bi.b
		}
		return bi.a
	}
	x := bi.a + int64(float64(bi.b-bi.a)*(1-bi.PPrime))
	// Keep x strictly inside (a, b) so both feedback branches shrink the
	// range, as Figure 3 assumes.
	if x <= bi.a {
		x = bi.a + 1
	}
	if x >= bi.b {
		x = bi.b - 1
	}
	return x
}

// Static replays a fixed stream, modeling the classical non-adaptive
// adversary: the whole input is committed before the game starts.
type Static struct {
	// StreamName labels the workload in tables.
	StreamName string
	// Gen produces the fixed stream for a game of length n. It is called
	// once per game on Reset-then-first-Next.
	Gen func(n int, r *rng.RNG) []int64

	stream []int64
}

// Name implements game.Adversary.
func (s *Static) Name() string { return "static-" + s.StreamName }

// Reset discards the previously generated stream.
func (s *Static) Reset() { s.stream = nil }

// Next implements game.Adversary, generating the fixed stream lazily on the
// first round and replaying it afterwards.
func (s *Static) Next(obs game.Observation, r *rng.RNG) int64 {
	if s.stream == nil {
		s.stream = s.Gen(obs.N, r)
		if len(s.stream) < obs.N {
			panic("adversary: static generator produced short stream")
		}
	}
	return s.stream[obs.Round-1]
}

// GenerateStream implements game.StreamGenerator: the whole fixed stream is
// produced in one call — drawing from r exactly as the lazy first Next does
// — so games can batch-ingest it without per-round adversary calls.
func (s *Static) GenerateStream(n int, r *rng.RNG) []int64 {
	if s.stream == nil {
		s.stream = s.Gen(n, r)
	}
	if len(s.stream) < n {
		panic("adversary: static generator produced short stream")
	}
	return s.stream[:n]
}

// NewStaticUniform returns a static adversary whose stream is i.i.d. uniform
// over [1, universe].
func NewStaticUniform(universe int64) *Static {
	return &Static{
		StreamName: "uniform",
		Gen: func(n int, r *rng.RNG) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = 1 + r.Int63n(universe)
			}
			return out
		},
	}
}

// NewStaticSorted returns a static adversary whose stream is an increasing
// arithmetic sweep across [1, universe]; sorted inputs are the classical
// hard case for naive prefix-based sampling.
func NewStaticSorted(universe int64) *Static {
	return &Static{
		StreamName: "sorted",
		Gen: func(n int, _ *rng.RNG) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = 1 + int64(i)*(universe-1)/int64(max(n-1, 1))
			}
			return out
		},
	}
}

// HHInflation attacks the heavy-hitters application (Corollary 1.6): it
// tries to inflate the sample density of a single target value above the
// reporting threshold while keeping its true stream density below
// alpha - eps. Whenever the target's sample density is below the inflation
// goal it submits the target; otherwise it submits cover traffic (fresh
// noise values), adapting each round to the observed sample.
type HHInflation struct {
	// Target is the value whose sample density the attack inflates.
	Target int64
	// Universe bounds the noise values, drawn from [1, Universe].
	Universe int64
	// Goal is the sample density the attack tries to exceed (set it at
	// or above the reporting threshold alpha).
	Goal float64
	// Budget caps the target's true stream density (keep it below
	// alpha - eps so reporting the target is a correctness violation).
	Budget float64

	sent int // number of times the target was submitted
}

// NewHHInflation returns a heavy-hitter inflation attack.
func NewHHInflation(target, universe int64, goal, budget float64) *HHInflation {
	if universe < 2 {
		panic("adversary: universe must be >= 2")
	}
	if goal <= 0 || goal > 1 || budget <= 0 || budget > 1 {
		panic("adversary: goal and budget must be in (0, 1]")
	}
	return &HHInflation{Target: target, Universe: universe, Goal: goal, Budget: budget}
}

// Name implements game.Adversary.
func (h *HHInflation) Name() string { return "hh-inflation" }

// Reset implements game.Adversary.
func (h *HHInflation) Reset() { h.sent = 0 }

// Next implements game.Adversary.
func (h *HHInflation) Next(obs game.Observation, r *rng.RNG) int64 {
	// Current sample density of the target.
	inSample := 0
	for _, v := range obs.Sample {
		if v == h.Target {
			inSample++
		}
	}
	sampleDensity := 0.0
	if len(obs.Sample) > 0 {
		sampleDensity = float64(inSample) / float64(len(obs.Sample))
	}
	withinBudget := float64(h.sent+1) <= h.Budget*float64(obs.N)
	if sampleDensity < h.Goal && withinBudget {
		h.sent++
		return h.Target
	}
	// Cover traffic: uniform noise, re-drawn if it collides with the
	// target.
	for {
		v := 1 + r.Int63n(h.Universe)
		if v != h.Target {
			return v
		}
	}
}

// MedianPusher is the introduction's adaptive median attack phrased over the
// discrete universe: it tracks the sample's median and submits elements on
// the opposite side of the stream median, dragging the two apart. It is a
// weaker, heuristic cousin of Bisection used to show that even crude
// adaptivity beats static streams.
//
// The pusher follows the sample through a sorted mirror kept in step from
// the game's per-round delta (Observation.DeltaKnown), so a round costs one
// binary-search insert or delete per changed element — nothing on the rounds
// a reservoir leaves its sample alone — and never allocates once the mirror
// has grown to the sample size. The mirror starts in step at a game's first
// round, whose sample is empty; an observation without a delta takes it out
// of step until the sample is next empty, and such rounds fall back to a
// linear-time selection in the mirror's buffer.
type MedianPusher struct {
	// Universe is N.
	Universe int64

	sorted []int64 // while synced, the previous observation's sample, ascending
	synced bool
}

// NewMedianPusher returns the heuristic median attack over [1, universe].
func NewMedianPusher(universe int64) *MedianPusher {
	if universe < 2 {
		panic("adversary: universe must be >= 2")
	}
	return &MedianPusher{Universe: universe}
}

// Name implements game.Adversary.
func (m *MedianPusher) Name() string { return "median-pusher" }

// Reset implements game.Adversary, dropping the mirror of the last game's
// sample.
func (m *MedianPusher) Reset() {
	m.sorted = m.sorted[:0]
	m.synced = false
}

// Next implements game.Adversary.
//
//robust:hotpath
func (m *MedianPusher) Next(obs game.Observation, r *rng.RNG) int64 {
	// Upper median of the current sample: the element of rank len/2.
	var med int64
	switch {
	case len(obs.Sample) == 0:
		// Every game starts here, and an empty mirror is in step with an
		// empty sample: the deltas take it from here.
		m.sorted = m.sorted[:0]
		m.synced = true
		return m.Universe / 2
	case obs.DeltaKnown && m.synced:
		// Additions first, then removals, so an element added and removed
		// by one delta is always found.
		for _, x := range obs.Added {
			i, _ := slices.BinarySearch(m.sorted, x)
			m.sorted = slices.Insert(m.sorted, i, x)
		}
		for _, x := range obs.Removed {
			if i, ok := slices.BinarySearch(m.sorted, x); ok {
				m.sorted = slices.Delete(m.sorted, i, i+1)
			}
		}
		med = m.sorted[len(m.sorted)/2]
	default:
		m.synced = false
		m.sorted = append(m.sorted[:0], obs.Sample...)
		med = quickselectMedian(m.sorted)
	}
	// Submit just above the sample median so that, if admitted, the
	// sample median climbs; if not, the stream mass accumulates above
	// the sample's view of the distribution anyway.
	span := m.Universe - med
	if span < 1 {
		return m.Universe
	}
	return med + 1 + r.Int63n(span)
}

// quickselectMedian reorders a so that a[len(a)/2] holds the element of that
// rank in sorted order, and returns it (Hoare's selection: expected linear
// time, duplicates split evenly).
func quickselectMedian(a []int64) int64 {
	k := len(a) / 2
	lo, hi := 0, len(a)-1
	for lo < hi {
		// The split index only guarantees a[lo..p] <= a[p+1..hi]; it is
		// not the pivot's sorted position, so keep the side holding rank k.
		p := partition(a, lo, hi)
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
	return a[k]
}

// partition is Hoare's scheme on a[lo..hi] (lo < hi) around the middle
// element. It returns p in [lo, hi) with a[lo..p] <= a[p+1..hi].
func partition(a []int64, lo, hi int) int {
	pivot := a[(lo+hi)/2]
	i, j := lo, hi
	for {
		for a[i] < pivot {
			i++
		}
		for a[j] > pivot {
			j--
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
		i++
		j--
	}
}
