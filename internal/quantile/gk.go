package quantile

import (
	"math"
	"sort"
)

// GK is the Greenwald-Khanna deterministic quantile summary [GK01]. It
// maintains a sorted list of tuples (v, g, delta) where g is the gap in
// minimum rank to the previous tuple and delta the uncertainty, with the
// invariant g + delta <= floor(2*eps*n). Being deterministic, it is
// adversarially robust "for free" — the contrast the paper draws in Section
// 1.1 — at the cost of a more intricate algorithm and, for small |U|,
// comparable or larger space than the robust sample.
type GK struct {
	// Eps is the rank-error guarantee: every rank answer is within
	// eps*n of the truth.
	Eps float64

	tuples []gkTuple
	n      int
}

type gkTuple struct {
	v     int64
	g     int
	delta int
}

// NewGK returns an empty GK summary with guarantee eps. It panics unless
// 0 < eps < 1.
func NewGK(eps float64) *GK {
	if eps <= 0 || eps >= 1 {
		panic("quantile: GK needs 0 < eps < 1")
	}
	return &GK{Eps: eps}
}

// Name implements Sketch.
func (g *GK) Name() string { return "gk" }

// Insert implements Sketch.
func (g *GK) Insert(x int64) {
	g.n++
	pos := sort.Search(len(g.tuples), func(i int) bool { return g.tuples[i].v >= x })
	var delta int
	if pos == 0 || pos == len(g.tuples) {
		// New minimum or maximum: exact rank, delta = 0.
		delta = 0
	} else {
		delta = g.capacity() - 1
		if delta < 0 {
			delta = 0
		}
	}
	t := gkTuple{v: x, g: 1, delta: delta}
	g.tuples = append(g.tuples, gkTuple{})
	copy(g.tuples[pos+1:], g.tuples[pos:])
	g.tuples[pos] = t

	// Compress periodically; every 1/(2 eps) insertions keeps the
	// amortized cost low while preserving the invariant.
	if g.n%int(math.Max(1, 1/(2*g.Eps))) == 0 {
		g.compress()
	}
}

// capacity returns floor(2*eps*n), the band capacity for merges.
func (g *GK) capacity() int {
	return int(2 * g.Eps * float64(g.n))
}

// compress merges adjacent tuples whose combined uncertainty fits within
// the capacity, scanning right to left as in the original algorithm.
func (g *GK) compress() {
	if len(g.tuples) < 3 {
		return
	}
	cap := g.capacity()
	out := g.tuples
	// Never merge into the last tuple's successor (none) and keep the
	// first tuple (minimum) intact.
	for i := len(out) - 2; i >= 1; i-- {
		cur := out[i]
		next := out[i+1]
		if cur.g+next.g+next.delta <= cap {
			// Merge cur into next.
			next.g += cur.g
			out[i+1] = next
			copy(out[i:], out[i+1:])
			out = out[:len(out)-1]
		}
	}
	g.tuples = out
}

// Rank implements Sketch. The true rank of x lies between the min-rank of
// the last tuple with value <= x and the max-rank of its successor minus
// one; returning the midpoint halves the worst case to eps*n.
func (g *GK) Rank(x int64) float64 {
	if len(g.tuples) == 0 {
		return 0
	}
	rMin := 0
	idx := -1
	for i, t := range g.tuples {
		if t.v > x {
			break
		}
		rMin += t.g
		idx = i
	}
	if idx == len(g.tuples)-1 {
		// x is at or above the maximum: rank is exactly n.
		return float64(rMin)
	}
	next := g.tuples[idx+1]
	rMaxBelow := rMin + next.g + next.delta - 1
	return (float64(rMin) + float64(rMaxBelow)) / 2
}

// Quantile implements Sketch via the standard GK query: return the value
// whose max-rank stays within the target + capacity window.
func (g *GK) Quantile(q float64) int64 {
	if len(g.tuples) == 0 {
		panic("quantile: empty sketch")
	}
	target := q * float64(g.n)
	bound := float64(g.capacity()) / 2
	rMin := 0
	for i, t := range g.tuples {
		rMin += t.g
		rMax := rMin + t.delta
		if float64(rMax) >= target-bound || i == len(g.tuples)-1 {
			return t.v
		}
	}
	return g.tuples[len(g.tuples)-1].v
}

// Size implements Sketch.
func (g *GK) Size() int { return len(g.tuples) }
