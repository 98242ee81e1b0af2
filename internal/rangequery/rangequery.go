// Package rangequery implements the range-query application of Section 1.2:
// streams of points over the grid universe U = [m]^d (d <= 3) queried with
// axis-aligned boxes. An eps-approximation of the point stream answers every
// box-count query within eps*n, and the robust sample size from Theorem 1.2
// uses ln|R| = d * ln(m(m+1)/2), i.e. O(d ln m) as the paper states.
//
// Exact counting (ground truth and exact discrepancy over *all* boxes) is
// done with d-dimensional prefix sums over the grid, so the experiment
// verdicts are exact rather than sampled.
package rangequery

import (
	"math"

	"robustsample/internal/rng"
)

// MaxDim is the largest supported dimension.
const MaxDim = 3

// Point is a point in [1, m]^d; coordinates beyond the dimension are
// ignored (and should be left zero).
type Point [MaxDim]int64

// Box is an axis-aligned box [Lo[j], Hi[j]] per coordinate.
type Box struct {
	Lo, Hi Point
}

// Grid describes the universe [1, M]^D.
type Grid struct {
	// M is the side length.
	M int64
	// D is the dimension, 1..MaxDim.
	D int
}

// NewGrid returns the grid universe [1, m]^d. It panics on invalid sizes.
func NewGrid(m int64, d int) Grid {
	if m < 1 {
		panic("rangequery: side length must be >= 1")
	}
	if d < 1 || d > MaxDim {
		panic("rangequery: dimension must be in 1..3")
	}
	return Grid{M: m, D: d}
}

// LogCardinality returns ln|R| for the axis-aligned box system:
// |R| = (m(m+1)/2)^d.
func (g Grid) LogCardinality() float64 {
	m := float64(g.M)
	return float64(g.D) * math.Log(m*(m+1)/2)
}

// Valid reports whether p lies in the grid.
func (g Grid) Valid(p Point) bool {
	for j := 0; j < g.D; j++ {
		if p[j] < 1 || p[j] > g.M {
			return false
		}
	}
	return true
}

// RandomPoint draws a uniform grid point.
func (g Grid) RandomPoint(r *rng.RNG) Point {
	var p Point
	for j := 0; j < g.D; j++ {
		p[j] = 1 + r.Int63n(g.M)
	}
	return p
}

// Counter maintains exact counts of points with d-dimensional prefix sums,
// supporting O(2^d) box-count queries after an O(m^d) build.
type Counter struct {
	grid   Grid
	raw    []int64 // m^d cell counts
	prefix []int64 // inclusive prefix sums, built lazily
	n      int
	dirty  bool
}

// NewCounter returns an empty counter over the grid. It panics if the grid
// would need more than ~64M cells.
func NewCounter(g Grid) *Counter {
	cells := int64(1)
	for j := 0; j < g.D; j++ {
		cells *= g.M
		if cells > 1<<26 {
			panic("rangequery: grid too large for exact counting")
		}
	}
	return &Counter{
		grid:   g,
		raw:    make([]int64, cells),
		prefix: make([]int64, cells),
	}
}

// Add records one point. It panics if the point is outside the grid.
func (c *Counter) Add(p Point) {
	if !c.grid.Valid(p) {
		panic("rangequery: point outside grid")
	}
	c.raw[c.index(p)]++
	c.n++
	c.dirty = true
}

// N returns the number of recorded points.
func (c *Counter) N() int { return c.n }

func (c *Counter) index(p Point) int64 {
	idx := int64(0)
	for j := 0; j < c.grid.D; j++ {
		idx = idx*c.grid.M + (p[j] - 1)
	}
	return idx
}

// build recomputes prefix sums: prefix[p] = #points with coord <= p
// coordinate-wise, via one sweep per dimension.
func (c *Counter) build() {
	copy(c.prefix, c.raw)
	m := c.grid.M
	d := c.grid.D
	// Strides: dimension j has stride m^(d-1-j).
	for j := d - 1; j >= 0; j-- {
		stride := int64(1)
		for t := j + 1; t < d; t++ {
			stride *= m
		}
		total := int64(len(c.prefix))
		for i := int64(0); i < total; i++ {
			// Coordinate of dim j at flat index i.
			coord := (i / stride) % m
			if coord > 0 {
				c.prefix[i] += c.prefix[i-stride]
			}
		}
	}
	c.dirty = false
}

// CountBox returns the exact number of recorded points inside the box,
// clamped to the grid. Empty (inverted) boxes count zero.
func (c *Counter) CountBox(b Box) int64 {
	if c.dirty {
		c.build()
	}
	d := c.grid.D
	// Inclusion-exclusion over the 2^d corners.
	var lo, hi [MaxDim]int64
	for j := 0; j < d; j++ {
		lo[j] = b.Lo[j]
		hi[j] = b.Hi[j]
		if lo[j] < 1 {
			lo[j] = 1
		}
		if hi[j] > c.grid.M {
			hi[j] = c.grid.M
		}
		if lo[j] > hi[j] {
			return 0
		}
	}
	total := int64(0)
	for mask := 0; mask < 1<<d; mask++ {
		var corner Point
		sign := int64(1)
		ok := true
		for j := 0; j < d; j++ {
			if mask&(1<<j) != 0 {
				corner[j] = lo[j] - 1
				sign = -sign
				if corner[j] < 1 {
					ok = false
					break
				}
			} else {
				corner[j] = hi[j]
			}
		}
		if !ok {
			if sign < 0 {
				continue // the lo-1 < 1 term is zero
			}
			continue
		}
		total += sign * c.prefix[c.index(corner)]
	}
	return total
}

// MaxBoxDiscrepancy computes the exact epsilon-approximation error of the
// sample against the stream over ALL axis-aligned boxes, by enumerating
// every box via prefix sums. Cost is O((m(m+1)/2)^d) queries; keep m modest
// (the experiments use m <= 32 for d = 2 and m <= 12 for d = 3). It also
// returns a witnessing box.
func MaxBoxDiscrepancy(g Grid, stream, sample []Point) (float64, Box) {
	if len(stream) == 0 {
		return 0, Box{}
	}
	sc := NewCounter(g)
	for _, p := range stream {
		sc.Add(p)
	}
	var smp *Counter
	if len(sample) > 0 {
		smp = NewCounter(g)
		for _, p := range sample {
			smp.Add(p)
		}
	}
	nx := float64(len(stream))
	ns := float64(len(sample))

	var best float64
	var bestBox Box
	var rec func(dim int, box Box)
	rec = func(dim int, box Box) {
		if dim == g.D {
			dx := float64(sc.CountBox(box)) / nx
			ds := 0.0
			if smp != nil {
				ds = float64(smp.CountBox(box)) / ns
			}
			if d := math.Abs(dx - ds); d > best {
				best = d
				bestBox = box
			}
			return
		}
		for lo := int64(1); lo <= g.M; lo++ {
			for hi := lo; hi <= g.M; hi++ {
				box.Lo[dim], box.Hi[dim] = lo, hi
				rec(dim+1, box)
			}
		}
	}
	rec(0, Box{})
	return best, bestBox
}

// CornerStuffer is an adaptive point-stream adversary: each round it
// evaluates which corner cell of the grid the current sample most
// underrepresents relative to the stream so far, and submits a point there.
// It is the d-dimensional cousin of the heavy-hitter inflation attack and
// drives experiment E8's adversarial row.
type CornerStuffer struct {
	grid    Grid
	streamC *Counter
}

// NewCornerStuffer returns a corner-stuffing adversary over the grid.
func NewCornerStuffer(g Grid) *CornerStuffer {
	return &CornerStuffer{grid: g, streamC: NewCounter(g)}
}

// Reset clears the stream history.
func (cs *CornerStuffer) Reset() {
	cs.streamC = NewCounter(cs.grid)
}

// Next chooses the next point given the current sample, then records it.
func (cs *CornerStuffer) Next(sample []Point, r *rng.RNG) Point {
	g := cs.grid
	corners := cornerCells(g)
	// Count the sample per corner.
	sampleCount := make([]int, len(corners))
	for _, p := range sample {
		for ci, corner := range corners {
			if p == corner {
				sampleCount[ci]++
			}
		}
	}
	// Pick the corner maximizing stream density minus sample density
	// (most underrepresented); break ties randomly.
	bestGap := math.Inf(-1)
	bestIdx := 0
	n := cs.streamC.N()
	for ci, corner := range corners {
		var streamD, sampleD float64
		if n > 0 {
			streamD = float64(cs.streamC.CountBox(Box{Lo: corner, Hi: corner})) / float64(n)
		}
		if len(sample) > 0 {
			sampleD = float64(sampleCount[ci]) / float64(len(sample))
		}
		gap := streamD - sampleD
		if gap > bestGap || (gap == bestGap && r.Bernoulli(0.5)) {
			bestGap = gap
			bestIdx = ci
		}
	}
	p := corners[bestIdx]
	cs.streamC.Add(p)
	return p
}

// cornerCells returns the 2^d corner cells of the grid.
func cornerCells(g Grid) []Point {
	out := make([]Point, 0, 1<<g.D)
	for mask := 0; mask < 1<<g.D; mask++ {
		var p Point
		for j := 0; j < g.D; j++ {
			if mask&(1<<j) != 0 {
				p[j] = g.M
			} else {
				p[j] = 1
			}
		}
		out = append(out, p)
	}
	return out
}
