package setsystem

import (
	"math"
	"slices"
)

// Density returns d_R(T) for the explicit range [lo, hi]: the fraction of
// elements of seq lying in [lo, hi]. It returns 0 for an empty sequence.
func Density(seq []int64, lo, hi int64) float64 {
	if len(seq) == 0 {
		return 0
	}
	count := 0
	for _, x := range seq {
		if x >= lo && x <= hi {
			count++
		}
	}
	return float64(count) / float64(len(seq))
}

// BruteMaxDiscrepancy computes the interval discrepancy by enumerating every
// interval [a, b] with endpoints among the values present in either sequence
// (plus universe boundaries). It is O(V^2 * (n+s)) and exists solely as a
// test oracle for the fast implementations.
func BruteMaxDiscrepancy(universe int64, stream, sample []int64) Discrepancy {
	if len(stream) == 0 {
		return Discrepancy{}
	}
	valueSet := map[int64]bool{1: true, universe: true}
	for _, v := range stream {
		valueSet[v] = true
	}
	for _, v := range sample {
		valueSet[v] = true
	}
	values := make([]int64, 0, len(valueSet))
	for v := range valueSet { //robust:nondet keys are sorted before use; collection order is irrelevant
		values = append(values, v)
	}
	slices.Sort(values)
	best := Discrepancy{Lo: 1, Hi: 1}
	for i, a := range values {
		for _, b := range values[i:] {
			d := math.Abs(Density(stream, a, b) - Density(sample, a, b))
			if d > best.Err {
				best = Discrepancy{Err: d, Lo: a, Hi: b}
			}
		}
	}
	return best
}

// BrutePrefixDiscrepancy is the prefix analogue of BruteMaxDiscrepancy,
// enumerating every prefix [1, b].
func BrutePrefixDiscrepancy(universe int64, stream, sample []int64) Discrepancy {
	if len(stream) == 0 {
		return Discrepancy{}
	}
	valueSet := map[int64]bool{universe: true}
	for _, v := range stream {
		valueSet[v] = true
	}
	for _, v := range sample {
		valueSet[v] = true
	}
	// Sweep endpoints in ascending order: ranging over the map directly
	// would randomize which endpoint wins a discrepancy tie, making the
	// witness nondeterministic across runs.
	values := make([]int64, 0, len(valueSet))
	for v := range valueSet { //robust:nondet keys are sorted before the sweep; collection order is irrelevant
		values = append(values, v)
	}
	slices.Sort(values)
	best := Discrepancy{Lo: 1, Hi: 1}
	for _, b := range values {
		d := math.Abs(Density(stream, 1, b) - Density(sample, 1, b))
		if d > best.Err {
			best = Discrepancy{Err: d, Lo: 1, Hi: b}
		}
	}
	return best
}
