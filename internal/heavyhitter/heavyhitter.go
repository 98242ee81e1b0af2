// Package heavyhitter implements the heavy-hitters application of
// Corollary 1.6 and the classical deterministic baselines.
//
// Problem (paper, Section 1.2): given threshold alpha and error eps, output
// a list containing every element with stream density >= alpha and no
// element with density <= alpha - eps.
//
// The paper's robust algorithm: maintain an (eps/3)-approximation S of the
// stream w.r.t. the singleton set system (via robust Bernoulli/reservoir
// sampling) and report every x in S with d_x(S) >= alpha - eps/3. The
// deterministic baselines — Misra-Gries and SpaceSaving — are adversarially
// robust for free and serve as the comparison points of Section 1.1.
package heavyhitter

import (
	"errors"
	"slices"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

// Sentinel errors for constructor parameter validation. They are surfaced
// (re-exported) at the public boundary by robustsample/topk; internal
// invariant violations still panic.
var (
	// ErrBadMemory reports a counter/sample memory below 1.
	ErrBadMemory = errors.New("heavyhitter: memory must be >= 1")
	// ErrBadEps reports an error parameter outside (0, 1).
	ErrBadEps = errors.New("heavyhitter: eps must be in (0, 1)")
	// ErrNilRNG reports a missing random source.
	ErrNilRNG = errors.New("heavyhitter: RNG must be non-nil")
	// ErrBadThreshold reports a reporting threshold outside (0, 1].
	ErrBadThreshold = errors.New("heavyhitter: reporting threshold must be in (0, 1]")
)

// Summary is a streaming heavy-hitters algorithm.
type Summary interface {
	// Name identifies the algorithm in tables.
	Name() string
	// Insert folds in one stream element.
	Insert(x int64)
	// Report returns the elements the algorithm declares heavy at
	// threshold alpha, in ascending order.
	Report(alpha float64) []int64
	// EstimateDensity returns the algorithm's estimate of d_x(stream).
	EstimateDensity(x int64) float64
	// Size returns the number of stored counters/values.
	Size() int
}

// SampleHH is the paper's sample-based heavy hitter summary (Corollary
// 1.6): a reservoir sample queried at threshold alpha - eps/3.
type SampleHH struct {
	// Eps is the error parameter; reporting uses alpha - Eps/3.
	Eps float64

	res *sampler.Reservoir[int64]
	rng *rng.RNG
}

// NewSampleHH returns a reservoir-backed heavy-hitters summary with memory
// k; pass k from core.HeavyHitterSize for adversarial robustness. It
// reports ErrBadMemory, ErrBadEps or ErrNilRNG on invalid parameters.
func NewSampleHH(k int, eps float64, r *rng.RNG) (*SampleHH, error) {
	if k < 1 {
		return nil, ErrBadMemory
	}
	if eps <= 0 || eps >= 1 {
		return nil, ErrBadEps
	}
	if r == nil {
		return nil, ErrNilRNG
	}
	return &SampleHH{Eps: eps, res: sampler.NewReservoir[int64](k), rng: r}, nil
}

// Name implements Summary.
func (s *SampleHH) Name() string { return "sample" }

// Insert implements Summary.
func (s *SampleHH) Insert(x int64) { s.res.Offer(x, s.rng) }

// Report implements Summary per Corollary 1.6: output all x in S with
// d_x(S) >= alpha - eps/3.
func (s *SampleHH) Report(alpha float64) []int64 {
	items := s.res.View()
	if len(items) == 0 {
		return nil
	}
	counts := make(map[int64]int, len(items))
	for _, x := range items {
		counts[x]++
	}
	cut := alpha - s.Eps/3
	var out []int64
	for x, c := range counts {
		if float64(c)/float64(len(items)) >= cut {
			out = append(out, x)
		}
	}
	sortInt64(out)
	return out
}

// EstimateDensity implements Summary.
func (s *SampleHH) EstimateDensity(x int64) float64 {
	items := s.res.View()
	if len(items) == 0 {
		return 0
	}
	c := 0
	for _, v := range items {
		if v == x {
			c++
		}
	}
	return float64(c) / float64(len(items))
}

// Size implements Summary.
func (s *SampleHH) Size() int { return s.res.Len() }

// MisraGries is the deterministic frequent-elements summary with m
// counters: every element with density > 1/(m+1) survives, and counts
// underestimate true counts by at most n/(m+1). Deterministic, hence
// adversarially robust.
type MisraGries struct {
	// M is the number of counters.
	M int

	counters map[int64]int
	n        int
}

// NewMisraGries returns a summary with m counters. It reports ErrBadMemory
// unless m >= 1.
func NewMisraGries(m int) (*MisraGries, error) {
	if m < 1 {
		return nil, ErrBadMemory
	}
	return &MisraGries{M: m, counters: make(map[int64]int, m+1)}, nil
}

// Name implements Summary.
func (mg *MisraGries) Name() string { return "misra-gries" }

// Insert implements Summary.
func (mg *MisraGries) Insert(x int64) {
	mg.n++
	if _, ok := mg.counters[x]; ok {
		mg.counters[x]++
		return
	}
	if len(mg.counters) < mg.M {
		mg.counters[x] = 1
		return
	}
	// Decrement all; drop zeros.
	for k := range mg.counters {
		mg.counters[k]--
		if mg.counters[k] == 0 {
			delete(mg.counters, k)
		}
	}
}

// Report implements Summary. The MG estimate undercounts by at most
// n/(M+1), so reporting everything with estimate >= (alpha - 1/(M+1)) n
// guarantees no heavy element is missed; with M >= 3/eps this matches the
// (alpha, eps) contract.
func (mg *MisraGries) Report(alpha float64) []int64 {
	if mg.n == 0 {
		return nil
	}
	cut := (alpha - 1/float64(mg.M+1)) * float64(mg.n)
	var out []int64
	for x, c := range mg.counters {
		if float64(c) >= cut {
			out = append(out, x)
		}
	}
	sortInt64(out)
	return out
}

// EstimateDensity implements Summary (an underestimate by <= 1/(M+1)).
func (mg *MisraGries) EstimateDensity(x int64) float64 {
	if mg.n == 0 {
		return 0
	}
	return float64(mg.counters[x]) / float64(mg.n)
}

// Size implements Summary.
func (mg *MisraGries) Size() int { return len(mg.counters) }

// SpaceSaving is the deterministic summary of Metwally et al. with m
// counters: counts overestimate by at most n/m. Deterministic, hence
// adversarially robust.
type SpaceSaving struct {
	// M is the number of counters.
	M int

	counts map[int64]int
	n      int
}

// NewSpaceSaving returns a summary with m counters. It reports ErrBadMemory
// unless m >= 1.
func NewSpaceSaving(m int) (*SpaceSaving, error) {
	if m < 1 {
		return nil, ErrBadMemory
	}
	return &SpaceSaving{M: m, counts: make(map[int64]int, m)}, nil
}

// Name implements Summary.
func (ss *SpaceSaving) Name() string { return "space-saving" }

// Insert implements Summary.
func (ss *SpaceSaving) Insert(x int64) {
	ss.n++
	if _, ok := ss.counts[x]; ok {
		ss.counts[x]++
		return
	}
	if len(ss.counts) < ss.M {
		ss.counts[x] = 1
		return
	}
	// Evict the minimum counter and inherit its count + 1.
	var minKey int64
	minVal := -1
	for k, v := range ss.counts {
		if minVal < 0 || v < minVal {
			minKey, minVal = k, v
		}
	}
	delete(ss.counts, minKey)
	ss.counts[x] = minVal + 1
}

// Report implements Summary. SpaceSaving overestimates by at most n/M, so
// reporting estimates >= alpha*n keeps every true heavy element (whose
// estimate is at least its true count) and, with M >= 1/eps, no element
// below (alpha-eps)n.
func (ss *SpaceSaving) Report(alpha float64) []int64 {
	if ss.n == 0 {
		return nil
	}
	cut := alpha * float64(ss.n)
	var out []int64
	for x, c := range ss.counts {
		if float64(c) >= cut {
			out = append(out, x)
		}
	}
	sortInt64(out)
	return out
}

// EstimateDensity implements Summary (an overestimate by <= 1/M).
func (ss *SpaceSaving) EstimateDensity(x int64) float64 {
	if ss.n == 0 {
		return 0
	}
	return float64(ss.counts[x]) / float64(ss.n)
}

// Size implements Summary.
func (ss *SpaceSaving) Size() int { return len(ss.counts) }

// Evaluate scores a report against the true stream at threshold alpha and
// error eps: a violation is either a missed element with density >= alpha
// (false negative) or a reported element with density <= alpha - eps (false
// positive). Elements in the indifference band (alpha-eps, alpha) are
// neither required nor forbidden.
type Evaluation struct {
	FalsePositives int
	FalseNegatives int
	TrueHeavy      int
	Reported       int
}

// Correct reports whether the output satisfies the (alpha, eps) contract.
func (e Evaluation) Correct() bool {
	return e.FalsePositives == 0 && e.FalseNegatives == 0
}

// Evaluate computes the Evaluation of `reported` against `stream`.
func Evaluate(stream []int64, reported []int64, alpha, eps float64) Evaluation {
	counts := make(map[int64]int)
	for _, x := range stream {
		counts[x]++
	}
	n := float64(len(stream))
	repSet := make(map[int64]bool, len(reported))
	for _, x := range reported {
		repSet[x] = true
	}
	var ev Evaluation
	ev.Reported = len(reported)
	for x, c := range counts {
		density := float64(c) / n
		if density >= alpha {
			ev.TrueHeavy++
			if !repSet[x] {
				ev.FalseNegatives++
			}
		}
	}
	for x := range repSet {
		if float64(counts[x])/n <= alpha-eps {
			ev.FalsePositives++
		}
	}
	return ev
}

func sortInt64(a []int64) {
	slices.Sort(a)
}
