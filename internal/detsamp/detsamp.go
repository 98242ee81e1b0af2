// Package detsamp implements a deterministic streaming eps-approximation
// for interval ranges via the classic merge-reduce scheme (Munro-Paterson /
// Manku-Rajagopalan-Lindsay style, the ancestor of the Bagchi et al.
// [BCEG07] deterministic sampler the paper compares against in Section 1.1).
//
// Being deterministic, the summary is adversarially robust "for free": the
// adversary can see the whole state, yet the output is an
// eps-approximation of ANY input stream. The trade-offs the paper
// highlights — more intricate algorithm, space with log factors in n, and
// the need to process every element — are exactly what experiment E14
// measures against the randomized robust samplers.
//
// Scheme: elements accumulate in a level-0 buffer of size B. A full buffer
// is sorted and carried up: whenever two buffers occupy the same level,
// they are merged (sorted) and halved by keeping the odd-indexed elements,
// producing one buffer one level higher whose elements each represent
// 2^(level) stream elements. A buffer at level l introduces rank error at
// most 2^(l-1) per reduce, totalling <= L*n/(2B) over the stream where
// L = ceil(log2(n/B)) is the number of levels, i.e. relative error L/(2B).
package detsamp

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// WeightedValue is a summary element standing for Weight stream elements
// less than or equal to Value (in rank terms).
type WeightedValue struct {
	Value  int64
	Weight int64
}

// MergeReduce is the deterministic summary. The zero value is not usable;
// construct with New or NewForEps.
type MergeReduce struct {
	// B is the buffer size; each full buffer holds exactly B sorted
	// values.
	B int

	accum  []int64   // level-0 accumulation buffer, unsorted
	levels [][]int64 // levels[l]: nil or a sorted buffer of B values with weight 2^l
	n      int
}

// Sentinel errors for constructor parameter validation; internal invariant
// violations (e.g. querying an empty summary) still panic.
var (
	// ErrBadBuffer reports a buffer size below 2.
	ErrBadBuffer = errors.New("detsamp: buffer size must be >= 2")
	// ErrBadEps reports an error parameter outside (0, 1).
	ErrBadEps = errors.New("detsamp: eps must be in (0, 1)")
	// ErrBadHint reports a non-positive stream-length hint.
	ErrBadHint = errors.New("detsamp: stream-length hint must be >= 1")
)

// New returns a merge-reduce summary with buffer size b (rounded up to
// even). It reports ErrBadBuffer unless b >= 2.
func New(b int) (*MergeReduce, error) {
	if b < 2 {
		return nil, ErrBadBuffer
	}
	if b%2 == 1 {
		b++
	}
	return &MergeReduce{B: b}, nil
}

// NewForEps returns a summary sized so that the rank error is at most eps*n
// for streams up to length nHint: B = 2 * ceil(L / (2*eps)) with
// L = ceil(log2(nHint)) + 1 levels. It reports ErrBadEps or ErrBadHint on
// invalid parameters.
func NewForEps(eps float64, nHint int) (*MergeReduce, error) {
	if eps <= 0 || eps >= 1 {
		return nil, ErrBadEps
	}
	if nHint < 1 {
		return nil, ErrBadHint
	}
	levels := math.Ceil(math.Log2(math.Max(float64(nHint), 2))) + 1
	b := int(math.Ceil(levels / (2 * eps)))
	if b < 2 {
		b = 2
	}
	return New(b)
}

// Insert folds in one stream element.
func (m *MergeReduce) Insert(x int64) {
	m.n++
	m.accum = append(m.accum, x)
	if len(m.accum) < m.B {
		return
	}
	buf := append([]int64(nil), m.accum...)
	m.accum = m.accum[:0]
	slices.Sort(buf)
	m.carry(0, buf)
}

// carry places a full sorted buffer at the given level, reducing upward
// while the level is occupied.
func (m *MergeReduce) carry(level int, buf []int64) {
	for {
		for level >= len(m.levels) {
			m.levels = append(m.levels, nil)
		}
		if m.levels[level] == nil {
			m.levels[level] = buf
			return
		}
		buf = reduce(m.levels[level], buf)
		m.levels[level] = nil
		level++
	}
}

// reduce merges two sorted buffers of size B and keeps the odd-indexed
// elements of the merge, returning a sorted buffer of size B one level up.
func reduce(a, b []int64) []int64 {
	merged := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, b[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	out := make([]int64, 0, len(merged)/2)
	for k := 1; k < len(merged); k += 2 {
		out = append(out, merged[k])
	}
	return out
}

// Size returns the number of stored values (space usage).
func (m *MergeReduce) Size() int {
	total := len(m.accum)
	for _, l := range m.levels {
		total += len(l)
	}
	return total
}

// WeightedValues returns the summary contents: level-l values with weight
// 2^l plus the partial accumulation buffer with weight 1, sorted by value.
// The total weight equals the number of inserted elements.
func (m *MergeReduce) WeightedValues() []WeightedValue {
	var out []WeightedValue
	for _, x := range m.accum {
		out = append(out, WeightedValue{Value: x, Weight: 1})
	}
	w := int64(1)
	for _, level := range m.levels {
		for _, x := range level {
			out = append(out, WeightedValue{Value: x, Weight: w})
		}
		w *= 2
	}
	slices.SortFunc(out, func(a, b WeightedValue) int { return cmp.Compare(a.Value, b.Value) })
	return out
}

// Rank estimates |{ j : x_j <= x }| from the weighted summary.
func (m *MergeReduce) Rank(x int64) float64 {
	total := int64(0)
	for _, wv := range m.WeightedValues() {
		if wv.Value <= x {
			total += wv.Weight
		}
	}
	return float64(total)
}

// Quantile returns a value of approximate rank q*n. It panics if empty.
func (m *MergeReduce) Quantile(q float64) int64 {
	wvs := m.WeightedValues()
	if len(wvs) == 0 {
		panic("detsamp: empty summary")
	}
	target := q * float64(m.n)
	acc := int64(0)
	for _, wv := range wvs {
		acc += wv.Weight
		if float64(acc) >= target {
			return wv.Value
		}
	}
	return wvs[len(wvs)-1].Value
}

// PrefixDiscrepancy returns the exact maximal deviation between the
// weighted summary CDF and the empirical CDF of the given stream over all
// prefix ranges [min, t] — the eps-approximation error of Definition 1.1
// restricted to prefixes, with the summary treated as a weighted sample.
func PrefixDiscrepancy(stream []int64, summary []WeightedValue) float64 {
	if len(stream) == 0 {
		return 0
	}
	if len(summary) == 0 {
		return 1
	}
	xs := append([]int64(nil), stream...)
	slices.Sort(xs)
	totalW := int64(0)
	for _, wv := range summary {
		totalW += wv.Weight
	}
	nx := float64(len(xs))
	nw := float64(totalW)
	var i, j int
	var wAcc int64
	worst := 0.0
	for i < len(xs) || j < len(summary) {
		var t int64
		switch {
		case i >= len(xs):
			t = summary[j].Value
		case j >= len(summary):
			t = xs[i]
		case xs[i] <= summary[j].Value:
			t = xs[i]
		default:
			t = summary[j].Value
		}
		for i < len(xs) && xs[i] <= t {
			i++
		}
		for j < len(summary) && summary[j].Value <= t {
			wAcc += summary[j].Weight
			j++
		}
		if d := math.Abs(float64(i)/nx - float64(wAcc)/nw); d > worst {
			worst = d
		}
	}
	return worst
}
