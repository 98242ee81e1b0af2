// Package centerpoint implements the beta-center-point application of
// Section 1.2: a point c is a beta-center of a point set X if every closed
// halfspace containing c contains at least beta*|X| points of X. The paper
// (via [CEM+96, Lemma 6.1]) observes that an eps-approximation S of X with
// respect to halfspaces lets one compute center points of the stream from
// the sample: with eps = beta/5, a (6beta/5)-center of S is a beta-center
// of X. More simply, any point of halfspace depth q in S has depth at least
// q - eps in X, which is the form the experiments verify.
//
// The package provides exact halfspace (Tukey) depth in 1-D and 2-D, center
// search, and the halfspace discrepancy between a stream and a sample —
// exact in 1-D; in 2-D either direction-sampled or exact over all
// combinatorially distinct directions for small inputs.
package centerpoint

import (
	"math"
	"sort"

	"robustsample/internal/rng"
)

// Point2 is a point in the plane.
type Point2 struct {
	X, Y float64
}

// Depth2D returns the exact Tukey depth of c in pts: the minimum over all
// closed halfplanes containing c of the fraction of points they contain.
// Computed by the standard angular sweep in O(n log n).
func Depth2D(c Point2, pts []Point2) float64 {
	n := len(pts)
	if n == 0 {
		return 0
	}
	// Points coincident with c belong to every closed halfplane through c.
	var angles []float64
	coincident := 0
	for _, p := range pts {
		dx, dy := p.X-c.X, p.Y-c.Y
		if dx == 0 && dy == 0 {
			coincident++
			continue
		}
		a := math.Atan2(dy, dx)
		if a < 0 {
			a += 2 * math.Pi
		}
		angles = append(angles, a)
	}
	if len(angles) == 0 {
		return 1
	}
	sort.Float64s(angles)
	m := len(angles)

	// A closed halfplane through c corresponds to a closed angular arc of
	// length pi; depth is the minimal number of angles such an arc must
	// contain. The count, as the arc rotates, only decreases immediately
	// after the arc's left boundary passes a point (or, symmetrically,
	// just before its right boundary reaches one), so it suffices to
	// evaluate arcs starting just after each angle and arcs ending just
	// before each angle. Counting uses binary search over the doubled
	// sorted angle array.
	doubled := make([]float64, 2*m)
	copy(doubled, angles)
	for i, a := range angles {
		doubled[m+i] = a + 2*math.Pi
	}
	countClosed := func(lo float64) int {
		for lo < 0 {
			lo += 2 * math.Pi
		}
		for lo >= 2*math.Pi {
			lo -= 2 * math.Pi
		}
		hi := lo + math.Pi
		i := sort.SearchFloat64s(doubled, lo)
		j := sort.Search(len(doubled), func(k int) bool { return doubled[k] > hi })
		return j - i
	}
	const nudge = 1e-9
	min := m
	for _, a := range angles {
		for _, lo := range []float64{a + nudge, a - math.Pi - nudge} {
			if cnt := countClosed(lo); cnt < min {
				min = cnt
			}
		}
	}
	return (float64(min) + float64(coincident)) / float64(n)
}

// DeepestOf returns the candidate with maximal Tukey depth in pts, and that
// depth. It panics on an empty candidate set.
func DeepestOf(candidates, pts []Point2) (Point2, float64) {
	if len(candidates) == 0 {
		panic("centerpoint: empty candidate set")
	}
	best := candidates[0]
	bestDepth := -1.0
	for _, c := range candidates {
		if d := Depth2D(c, pts); d > bestDepth {
			best, bestDepth = c, d
		}
	}
	return best, bestDepth
}

// Center2D returns an approximate center point of pts: the deepest point
// among pts themselves plus the coordinate-wise median. By the centerpoint
// theorem, a point of depth >= 1/3 exists; the discrete search finds a
// point whose depth is close to the best among the candidates.
func Center2D(pts []Point2) (Point2, float64) {
	if len(pts) == 0 {
		panic("centerpoint: empty point set")
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	med := Point2{X: xs[len(xs)/2], Y: ys[len(ys)/2]}
	candidates := append(append([]Point2(nil), pts...), med)
	return DeepestOf(candidates, pts)
}

// HalfspaceDiscrepancy1D returns the exact maximal density deviation
// between stream and sample over all closed rays {x <= t} and {x >= t}.
func HalfspaceDiscrepancy1D(stream, sample []float64) float64 {
	if len(stream) == 0 {
		return 0
	}
	if len(sample) == 0 {
		return 1
	}
	xs := append([]float64(nil), stream...)
	ss := append([]float64(nil), sample...)
	sort.Float64s(xs)
	sort.Float64s(ss)
	// Rays {x <= t}: KS distance over the merged breakpoints; rays
	// {x >= t} give the same supremum by complementation.
	var i, j int
	nx, ns := float64(len(xs)), float64(len(ss))
	worst := 0.0
	for i < len(xs) || j < len(ss) {
		var t float64
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
		for i < len(xs) && xs[i] <= t {
			i++
		}
		for j < len(ss) && ss[j] <= t {
			j++
		}
		if d := math.Abs(float64(i)/nx - float64(j)/ns); d > worst {
			worst = d
		}
	}
	return worst
}

// HalfspaceDiscrepancy2D estimates the maximal density deviation between
// stream and sample over all halfplanes by projecting both sets onto
// `directions` sampled directions and taking the worst 1-D ray discrepancy.
// It is a lower bound on the true halfplane discrepancy converging as
// directions grows; tests compare it against the exact small-input version.
func HalfspaceDiscrepancy2D(stream, sample []Point2, directions int, r *rng.RNG) float64 {
	if len(stream) == 0 {
		return 0
	}
	if len(sample) == 0 {
		return 1
	}
	if directions < 1 {
		panic("centerpoint: need at least one direction")
	}
	worst := 0.0
	ps := make([]float64, len(stream))
	qs := make([]float64, len(sample))
	for d := 0; d < directions; d++ {
		theta := math.Pi * float64(d) / float64(directions)
		if r != nil {
			theta += r.Float64() * math.Pi / float64(directions)
		}
		ux, uy := math.Cos(theta), math.Sin(theta)
		for i, p := range stream {
			ps[i] = p.X*ux + p.Y*uy
		}
		for i, p := range sample {
			qs[i] = p.X*ux + p.Y*uy
		}
		if e := HalfspaceDiscrepancy1D(ps, qs); e > worst {
			worst = e
		}
	}
	return worst
}
