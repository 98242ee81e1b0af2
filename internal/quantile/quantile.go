// Package quantile implements the quantile-estimation application of
// Corollary 1.5 and its classical competitors.
//
// The paper's robust quantile sketch is simply a Bernoulli or reservoir
// sample sized for the prefix set system (|R| = |U|): if the sample is an
// eps-approximation, every rank query is answered within eps*n, for all
// quantiles simultaneously. This package provides the reservoir form of
// that sketch (SampleSketch, over internal/sampler's Reservoir) plus the two
// standard baselines the streaming literature (and the paper's related-work
// section) compares against:
//
//   - Greenwald-Khanna [GK01]: deterministic, hence trivially adversarially
//     robust, with O(eps^-1 log(eps n)) space.
//   - KLL [KLL16]: randomized compactor hierarchy with optimal static
//     space; NOT known to be adversarially robust, included as the
//     contrast point.
//
// All sketches answer Rank(x) = |{ j : x_j <= x }| estimates; exact
// reference ranks come from ExactRanker.
package quantile

import (
	"math"
	"slices"
	"sort"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

// Sketch is a streaming rank/quantile estimator over int64 values.
type Sketch interface {
	// Name identifies the sketch in tables.
	Name() string
	// Insert folds in one stream element.
	Insert(x int64)
	// Rank estimates |{ j : x_j <= x }| over the stream so far.
	Rank(x int64) float64
	// Quantile returns an element whose rank is approximately q*n, for
	// q in [0, 1]. It panics if the sketch is empty.
	Quantile(q float64) int64
	// Size returns the number of stored tuples/values (space usage).
	Size() int
}

// ExactRanker stores the entire stream and answers exact ranks; it is the
// ground truth the experiments compare sketches against.
type ExactRanker struct {
	values []int64
	sorted bool
}

// NewExact returns an empty exact ranker.
func NewExact() *ExactRanker { return &ExactRanker{} }

// Name implements Sketch.
func (e *ExactRanker) Name() string { return "exact" }

// Insert implements Sketch.
func (e *ExactRanker) Insert(x int64) {
	e.values = append(e.values, x)
	e.sorted = false
}

func (e *ExactRanker) ensureSorted() {
	if !e.sorted {
		slices.Sort(e.values)
		e.sorted = true
	}
}

// Rank implements Sketch (exactly).
func (e *ExactRanker) Rank(x int64) float64 {
	e.ensureSorted()
	idx := sort.Search(len(e.values), func(i int) bool { return e.values[i] > x })
	return float64(idx)
}

// Quantile implements Sketch (exactly).
func (e *ExactRanker) Quantile(q float64) int64 {
	if len(e.values) == 0 {
		panic("quantile: empty sketch")
	}
	e.ensureSorted()
	idx := int(q*float64(len(e.values))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.values) {
		idx = len(e.values) - 1
	}
	return e.values[idx]
}

// Size implements Sketch.
func (e *ExactRanker) Size() int { return len(e.values) }

// SampleSketch answers rank queries from a maintained reservoir sample;
// with a Theorem 1.2-sized sample it is the paper's adversarially robust
// quantile sketch (Corollary 1.5).
type SampleSketch struct {
	res *sampler.Reservoir[int64]
	rng *rng.RNG
}

// NewReservoirSketch wraps a reservoir sampler of memory k as a quantile
// sketch; pass k from core.QuantileSketchSize for robustness.
func NewReservoirSketch(k int, r *rng.RNG) *SampleSketch {
	return &SampleSketch{res: sampler.NewReservoir[int64](k), rng: r}
}

// Name implements Sketch.
func (s *SampleSketch) Name() string { return "reservoir-sample" }

// Insert implements Sketch.
func (s *SampleSketch) Insert(x int64) { s.res.Offer(x, s.rng) }

// Rank implements Sketch: rank(x) ~= d_[min,x](S) * n.
func (s *SampleSketch) Rank(x int64) float64 {
	sample := s.res.View()
	if len(sample) == 0 {
		return 0
	}
	below := 0
	for _, v := range sample {
		if v <= x {
			below++
		}
	}
	return float64(below) / float64(len(sample)) * float64(s.res.Rounds())
}

// Quantile implements Sketch: the q-quantile of the sample.
func (s *SampleSketch) Quantile(q float64) int64 {
	sample := s.res.Sample()
	if len(sample) == 0 {
		panic("quantile: empty sketch")
	}
	slices.Sort(sample)
	idx := int(q*float64(len(sample))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sample) {
		idx = len(sample) - 1
	}
	return sample[idx]
}

// Size implements Sketch.
func (s *SampleSketch) Size() int { return s.res.Len() }

// MaxRankError returns the maximal |sketch.Rank(x) - exact rank| / n over
// all distinct stream values, the all-quantiles error metric of Corollary
// 1.5. stream must be the full stream the sketch ingested.
func MaxRankError(sk Sketch, stream []int64) float64 {
	if len(stream) == 0 {
		return 0
	}
	sorted := append([]int64(nil), stream...)
	slices.Sort(sorted)
	n := float64(len(sorted))
	worst := 0.0
	for i := 0; i < len(sorted); i++ {
		// Skip duplicates; rank changes only at distinct values.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		exact := float64(i + 1)
		got := sk.Rank(sorted[i])
		if d := math.Abs(got-exact) / n; d > worst {
			worst = d
		}
	}
	return worst
}
