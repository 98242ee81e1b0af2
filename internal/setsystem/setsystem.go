// Package setsystem implements the set systems (U, R) of the paper over a
// well-ordered integer universe U = {1, ..., N}, together with *exact*
// computation of the epsilon-approximation error of Definition 1.1:
//
//	err(X, S) = sup_{R in R} | d_R(X) - d_R(S) |,
//
// where d_R(T) is the fraction of elements of the sequence T lying in R.
//
// Exactness matters: the verdict step of AdaptiveGame (Figure 1) asks whether
// the sample is an epsilon-approximation, and an approximate verdict would
// contaminate every measured failure probability. For the ordered systems the
// paper uses, the supremum reduces to extrema of the CDF-difference function
// and is computed in O((n+s) log(n+s)).
//
// The systems provided are exactly those the paper works with:
//
//   - Prefixes  R = {[1, b] : b in U}     (Theorem 1.3, Corollary 1.5)
//   - Intervals R = {[a, b] : a <= b}     (Section 1, quantile discussion)
//   - Singletons R = {{a} : a in U}       (Corollary 1.6, heavy hitters)
//   - Suffixes  R = {[b, N] : b in U}     (halfline complement, center points)
package setsystem

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Discrepancy reports the maximal density deviation between a stream and a
// sample, together with a witnessing range [Lo, Hi] achieving it.
type Discrepancy struct {
	Err    float64
	Lo, Hi int64
}

func (d Discrepancy) String() string {
	return fmt.Sprintf("err=%.5f witness=[%d,%d]", d.Err, d.Lo, d.Hi)
}

// SetSystem is a family of ranges over the universe [1, N] supporting exact
// discrepancy computation.
type SetSystem interface {
	// Name identifies the system in tables ("prefixes", "intervals", ...).
	Name() string
	// UniverseSize returns N.
	UniverseSize() int64
	// LogCardinality returns ln|R|, the term that replaces the
	// VC-dimension in Theorem 1.2.
	LogCardinality() float64
	// MaxDiscrepancy returns sup_{R} |d_R(stream) - d_R(sample)| exactly.
	// Both inputs may be in arbitrary order; they are not mutated. An
	// empty sample against a non-empty stream has discrepancy 1 (the
	// paper requires samples to be non-empty; the game treats this as a
	// failure).
	MaxDiscrepancy(stream, sample []int64) Discrepancy
	// NewAccumulator returns an empty incremental discrepancy engine for
	// this system, whose Max agrees bit-for-bit with MaxDiscrepancy on
	// equal multisets.
	NewAccumulator() *Accumulator
}

// Prefixes is the one-sided interval system {[1, b] : b in U} with
// VC-dimension 1 and |R| = N. It is the set system of Theorem 1.3 and of the
// quantile application (Corollary 1.5).
type Prefixes struct{ n int64 }

// NewPrefixes returns the prefix system over [1, n]. It panics if n < 1.
func NewPrefixes(n int64) Prefixes {
	if n < 1 {
		panic("setsystem: universe must have size >= 1")
	}
	return Prefixes{n: n}
}

func (p Prefixes) Name() string            { return "prefixes" }
func (p Prefixes) UniverseSize() int64     { return p.n }
func (p Prefixes) LogCardinality() float64 { return math.Log(float64(p.n)) }

// MaxDiscrepancy computes sup_b |F_X(b) - F_S(b)|, the Kolmogorov-Smirnov
// distance between the empirical distributions restricted to [1, N].
func (p Prefixes) MaxDiscrepancy(stream, sample []int64) Discrepancy {
	return cdfScan(stream, sample, false)
}

// Intervals is the two-sided system {[a, b] : a <= b in U}, including all
// singletons [a, a]. |R| = N(N+1)/2 and the VC-dimension is 2.
type Intervals struct{ n int64 }

// NewIntervals returns the interval system over [1, n]. It panics if n < 1.
func NewIntervals(n int64) Intervals {
	if n < 1 {
		panic("setsystem: universe must have size >= 1")
	}
	return Intervals{n: n}
}

func (iv Intervals) Name() string        { return "intervals" }
func (iv Intervals) UniverseSize() int64 { return iv.n }

func (iv Intervals) LogCardinality() float64 {
	n := float64(iv.n)
	return math.Log(n*(n+1)) - math.Log(2)
}

// MaxDiscrepancy computes the supremum over all intervals. Writing
// D(t) = F_X(t) - F_S(t) for the CDF difference (with D(0) = 0), the density
// deviation of [a, b] is D(b) - D(a-1), so the supremum of its absolute value
// equals max_t D(t) - min_t D(t).
func (iv Intervals) MaxDiscrepancy(stream, sample []int64) Discrepancy {
	return cdfScan(stream, sample, true)
}

// Singletons is the system {{a} : a in U} with |R| = N and VC-dimension 1.
// It underlies the heavy-hitters application (Corollary 1.6).
type Singletons struct{ n int64 }

// NewSingletons returns the singleton system over [1, n]. It panics if n < 1.
func NewSingletons(n int64) Singletons {
	if n < 1 {
		panic("setsystem: universe must have size >= 1")
	}
	return Singletons{n: n}
}

func (s Singletons) Name() string            { return "singletons" }
func (s Singletons) UniverseSize() int64     { return s.n }
func (s Singletons) LogCardinality() float64 { return math.Log(float64(s.n)) }

// MaxDiscrepancy computes max_v |freq_X(v)/|X| - freq_S(v)/|S||. Deviations
// are compared as exact integer numerators over the common denominator
// |X||S|, sweeping values in ascending order, so the result (error and
// witness, ties broken toward the smallest value) is deterministic and
// agrees bit-for-bit with the Accumulator.
func (s Singletons) MaxDiscrepancy(stream, sample []int64) Discrepancy {
	if len(stream) == 0 {
		return Discrepancy{}
	}
	nx := int64(len(stream))
	cx := make(map[int64]int64, len(stream))
	for _, x := range stream {
		cx[x]++
	}
	if len(sample) == 0 {
		// Every non-empty value witnesses its own stream density; the
		// maximal one is the heaviest element (smallest such value).
		values := make([]int64, 0, len(cx))
		for v := range cx { //robust:nondet keys are sorted before use; collection order is irrelevant
			values = append(values, v)
		}
		slices.Sort(values)
		var bestC, bestAt int64
		for _, v := range values {
			if cx[v] > bestC {
				bestC, bestAt = cx[v], v
			}
		}
		return Discrepancy{Err: float64(bestC) / float64(nx), Lo: bestAt, Hi: bestAt}
	}
	ns := int64(len(sample))
	cs := make(map[int64]int64, len(sample))
	for _, x := range sample {
		cs[x]++
	}
	values := make([]int64, 0, len(cx)+len(cs))
	for v := range cx { //robust:nondet keys are sorted before use; collection order is irrelevant
		values = append(values, v)
	}
	for v := range cs { //robust:nondet keys are sorted before use; collection order is irrelevant
		if _, ok := cx[v]; !ok {
			values = append(values, v)
		}
	}
	slices.Sort(values)
	var bestNum, bestAt int64
	for _, v := range values {
		if d := abs64(cx[v]*ns - cs[v]*nx); d > bestNum {
			bestNum, bestAt = d, v
		}
	}
	if bestNum == 0 {
		return Discrepancy{}
	}
	return Discrepancy{Err: float64(bestNum) / (float64(nx) * float64(ns)), Lo: bestAt, Hi: bestAt}
}

// Suffixes is the system {[b, N] : b in U}. Its discrepancy equals that of
// Prefixes on the complemented CDF; it is provided for the center-point
// application where halflines in both directions are needed.
type Suffixes struct{ n int64 }

// NewSuffixes returns the suffix system over [1, n]. It panics if n < 1.
func NewSuffixes(n int64) Suffixes {
	if n < 1 {
		panic("setsystem: universe must have size >= 1")
	}
	return Suffixes{n: n}
}

func (s Suffixes) Name() string            { return "suffixes" }
func (s Suffixes) UniverseSize() int64     { return s.n }
func (s Suffixes) LogCardinality() float64 { return math.Log(float64(s.n)) }

// MaxDiscrepancy computes sup_b |d_[b,N](X) - d_[b,N](S)|. Since
// d_[b,N](T) = 1 - F_T(b-1), this equals sup over prefixes [1, b-1] with
// b-1 ranging over {0, ..., N-1}; the b-1 = 0 case contributes zero, so the
// value coincides with the prefix discrepancy except that the witness is
// reported as a suffix. An empty stream has the zero Discrepancy, as in the
// other three systems and the Accumulator.
func (s Suffixes) MaxDiscrepancy(stream, sample []int64) Discrepancy {
	if len(stream) == 0 {
		return Discrepancy{}
	}
	d := cdfScan(stream, sample, false)
	// Convert witness [1, b] to the complementary suffix [b+1, N].
	lo := d.Hi + 1
	if lo > s.n {
		lo = s.n
	}
	return Discrepancy{Err: d.Err, Lo: lo, Hi: s.n}
}

// scanBufs recycles cdfScan's sort buffers (*[]int64) across calls.
var scanBufs sync.Pool

// cdfScan walks the merged sorted values of stream and sample tracking the
// CDF difference D(t) = F_X(t) - F_S(t). With twoSided=false it returns
// max_t |D(t)| (prefix discrepancy with witness [1, t]); with twoSided=true
// it returns max_t D(t) - min_t D(t) (interval discrepancy with the interval
// between the extremal points as witness).
//
// D(t) is tracked as the exact integer numerator Cx(t)*|S| - Cs(t)*|X| over
// the common denominator |X||S|, so extrema and witnesses are found by exact
// int64 comparison and the single float division at the end agrees
// bit-for-bit with the incremental Accumulator.
func cdfScan(stream, sample []int64, twoSided bool) Discrepancy {
	if len(stream) == 0 {
		return Discrepancy{}
	}
	if len(sample) == 0 {
		// The range containing everything (or the full prefix) has
		// density 1 in the stream and 0 in the empty sample.
		min, max := stream[0], stream[0]
		for _, v := range stream {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if twoSided {
			return Discrepancy{Err: 1, Lo: min, Hi: max}
		}
		return Discrepancy{Err: 1, Lo: 1, Hi: max}
	}

	// One buffer holds both copies and the radix scratch they share; it is
	// recycled, so a steady stream of verdicts does not feed the collector.
	need := len(stream) + len(sample) + max(len(stream), len(sample))
	bp, _ := scanBufs.Get().(*[]int64)
	if bp == nil {
		bp = new([]int64)
	}
	if cap(*bp) < need {
		*bp = make([]int64, need)
	}
	defer scanBufs.Put(bp)
	mem := (*bp)[:need]
	xs := mem[:len(stream):len(stream)]
	ss := mem[len(stream) : len(stream)+len(sample) : len(stream)+len(sample)]
	tmp := mem[len(stream)+len(sample):]
	copy(xs, stream)
	copy(ss, sample)
	radixSort(xs, tmp)
	radixSort(ss, tmp)

	nx := int64(len(xs))
	ns := int64(len(ss))

	var i, j int
	var num int64 // current numerator of D(t)

	// One-sided tracking.
	var bestAbs, bestAbsAt int64

	// Two-sided tracking: extrema of D and their positions. D(0) = 0 is a
	// valid baseline (the empty prefix), represented by position 0.
	var maxD, minD, maxAt, minAt int64

	for i < len(xs) || j < len(ss) {
		var t int64
		switch {
		case i >= len(xs):
			t = ss[j]
		case j >= len(ss):
			t = xs[i]
		case xs[i] <= ss[j]:
			t = xs[i]
		default:
			t = ss[j]
		}
		var cx, cs int64
		for i < len(xs) && xs[i] == t {
			cx++
			i++
		}
		for j < len(ss) && ss[j] == t {
			cs++
			j++
		}
		num += cx*ns - cs*nx
		if a := abs64(num); a > bestAbs {
			bestAbs = a
			bestAbsAt = t
		}
		if num > maxD {
			maxD = num
			maxAt = t
		}
		if num < minD {
			minD = num
			minAt = t
		}
	}

	denom := float64(nx) * float64(ns)
	if !twoSided {
		return Discrepancy{Err: float64(bestAbs) / denom, Lo: 1, Hi: bestAbsAt}
	}
	err := float64(maxD-minD) / denom
	lo, hi := minAt+1, maxAt
	if maxAt < minAt {
		lo, hi = maxAt+1, minAt
	}
	if lo > hi {
		// Degenerate: both extrema at the baseline; no deviation.
		lo, hi = 1, 1
	}
	return Discrepancy{Err: err, Lo: lo, Hi: hi}
}

// radixMinLen is the length below which radixSort hands over to pdqsort:
// the radix passes' fixed cost of 256 counters per byte outweighs the
// comparisons on shorter inputs.
const radixMinLen = 256

// radixSort sorts xs ascending in place, using tmp (len(tmp) >= len(xs)) as
// scratch. It is an LSD radix sort on each key's unsigned offset from the
// minimum, one stable 8-bit counting pass per byte the largest offset uses
// (three for the universe [2^20]) and none for a constant input. A sorted
// integer array is unique, so callers see exactly what slices.Sort gives.
func radixSort(xs, tmp []int64) {
	if len(xs) < radixMinLen {
		slices.Sort(xs)
		return
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	span := uint64(hi - lo) // exact even across the full int64 range
	passes := 0
	for ; passes < 8 && span>>(8*passes) != 0; passes++ {
	}
	var counts [8][256]int
	for _, v := range xs {
		off := uint64(v - lo)
		for p := 0; p < passes; p++ {
			counts[p][byte(off>>(8*p))]++
		}
	}
	src, dst := xs, tmp[:len(xs)]
	for p := 0; p < passes; p++ {
		c := &counts[p]
		pos := 0
		for b, n := range c {
			c[b] = pos
			pos += n
		}
		shift := 8 * p
		for _, v := range src {
			b := byte(uint64(v-lo) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(xs, src)
	}
}
