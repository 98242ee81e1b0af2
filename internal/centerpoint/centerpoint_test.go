package centerpoint

import (
	"math"
	"sort"
	"testing"

	"robustsample/internal/rng"
)

func TestDepth1DBasics(t *testing.T) {
	pts := []float64{1, 2, 3, 4, 5}
	if d := Depth1D(3, pts); d != 0.6 {
		t.Fatalf("depth of median = %v, want 0.6", d)
	}
	if d := Depth1D(1, pts); d != 0.2 {
		t.Fatalf("depth of min = %v, want 0.2", d)
	}
	if d := Depth1D(0, pts); d != 0 {
		t.Fatalf("depth outside hull = %v, want 0", d)
	}
	if Depth1D(1, nil) != 0 {
		t.Fatal("empty depth should be 0")
	}
}

func TestDepth2DSquare(t *testing.T) {
	// Four corners of a square: the center has depth 1/2, a corner 1/4.
	pts := []Point2{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if d := Depth2D(Point2{0.5, 0.5}, pts); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("center depth %v, want 0.5", d)
	}
	if d := Depth2D(Point2{0, 0}, pts); math.Abs(d-0.25) > 1e-9 {
		t.Fatalf("corner depth %v, want 0.25", d)
	}
	if d := Depth2D(Point2{5, 5}, pts); d != 0 {
		t.Fatalf("outside depth %v, want 0", d)
	}
}

func TestDepth2DCoincident(t *testing.T) {
	pts := []Point2{{1, 1}, {1, 1}, {2, 2}}
	d := Depth2D(Point2{1, 1}, pts)
	// The two coincident points are in every halfplane through c; the
	// worst halfplane excludes (2,2): depth = 2/3.
	if math.Abs(d-2.0/3) > 1e-9 {
		t.Fatalf("coincident depth %v, want 2/3", d)
	}
	if Depth2D(Point2{3, 4}, nil) != 0 {
		t.Fatal("empty set depth should be 0")
	}
	if Depth2D(Point2{1, 1}, []Point2{{1, 1}}) != 1 {
		t.Fatal("all-coincident depth should be 1")
	}
}

func TestDepth2DMatchesBruteForce(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(15)
		pts := make([]Point2, n)
		for i := range pts {
			pts[i] = Point2{r.Float64(), r.Float64()}
		}
		c := pts[r.Intn(n)]
		got := Depth2D(c, pts)
		want := bruteDepth2D(c, pts)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("depth %v, brute force %v (c=%v pts=%v)", got, want, c, pts)
		}
	}
}

// bruteDepth2D checks all halfplanes whose boundary passes through c and a
// data point: the candidate inward normals are perpendicular to the
// direction from c to each point, perturbed slightly to both sides.
func bruteDepth2D(c Point2, pts []Point2) float64 {
	n := len(pts)
	min := n
	for _, q := range pts {
		dx, dy := q.X-c.X, q.Y-c.Y
		if dx == 0 && dy == 0 {
			continue
		}
		base := math.Atan2(dy, dx)
		for _, off := range []float64{math.Pi / 2, -math.Pi / 2} {
			for _, delta := range []float64{0, 1e-7, -1e-7} {
				theta := base + off + delta
				ux, uy := math.Cos(theta), math.Sin(theta)
				count := 0
				for _, p := range pts {
					// Closed halfplane with inward normal (ux, uy).
					if (p.X-c.X)*ux+(p.Y-c.Y)*uy >= -1e-12 {
						count++
					}
				}
				if count < min {
					min = count
				}
			}
		}
	}
	if min == n && n > 0 {
		// No distinct directions: all points coincide with c.
		return 1
	}
	return float64(min) / float64(n)
}

func TestCenter2DDepthAtLeastThird(t *testing.T) {
	// Centerpoint theorem: some point of depth >= 1/3 exists; our
	// discrete search over data points + median should find depth close
	// to 1/3 on generic data.
	r := rng.New(3)
	pts := make([]Point2, 200)
	for i := range pts {
		pts[i] = Point2{r.NormFloat64(), r.NormFloat64()}
	}
	_, depth := Center2D(pts)
	if depth < 0.3 {
		t.Fatalf("center depth %v < 0.3", depth)
	}
}

func TestCenter2DPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Center2D(nil)
}

func TestDeepestOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DeepestOf(nil, []Point2{{1, 1}})
}

func TestHalfspaceDiscrepancy1D(t *testing.T) {
	stream := []float64{1, 2, 3, 4}
	if d := HalfspaceDiscrepancy1D(stream, stream); d != 0 {
		t.Fatalf("identical discrepancy %v", d)
	}
	if d := HalfspaceDiscrepancy1D(stream, nil); d != 1 {
		t.Fatalf("empty sample discrepancy %v", d)
	}
	if d := HalfspaceDiscrepancy1D(nil, stream); d != 0 {
		t.Fatalf("empty stream discrepancy %v", d)
	}
	// Sample {1,2}: ray {x <= 2} has density 0.5 vs 1.
	if d := HalfspaceDiscrepancy1D(stream, []float64{1, 2}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("discrepancy %v, want 0.5", d)
	}
}

func TestHalfspaceDepthTransfer1D(t *testing.T) {
	// The [CEM+96]-style transfer: if S is an eps-approximation w.r.t.
	// halfspaces, the depth of any c differs between S and X by <= eps.
	r := rng.New(4)
	stream := make([]float64, 5000)
	for i := range stream {
		stream[i] = r.NormFloat64()
	}
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = stream[r.Intn(len(stream))]
	}
	eps := HalfspaceDiscrepancy1D(stream, sample)
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	c := sorted[len(sorted)/2]
	depthS := Depth1D(c, sample)
	depthX := Depth1D(c, stream)
	if depthX < depthS-eps-1e-9 {
		t.Fatalf("depth transfer violated: sample %v, stream %v, eps %v", depthS, depthX, eps)
	}
}

func TestHalfspaceDiscrepancy2DSampledVsExact(t *testing.T) {
	r := rng.New(5)
	stream := make([]Point2, 40)
	for i := range stream {
		stream[i] = Point2{r.Float64(), r.Float64()}
	}
	sample := stream[:8]
	exact := ExactHalfspaceDiscrepancy2D(stream, sample)
	approx := HalfspaceDiscrepancy2D(stream, sample, 256, nil)
	if approx > exact+1e-9 {
		t.Fatalf("sampled discrepancy %v exceeds exact %v", approx, exact)
	}
	if approx < exact-0.15 {
		t.Fatalf("sampled discrepancy %v far below exact %v", approx, exact)
	}
}

func TestHalfspaceDiscrepancy2DEdges(t *testing.T) {
	if HalfspaceDiscrepancy2D(nil, nil, 4, nil) != 0 {
		t.Fatal("empty stream should give 0")
	}
	if HalfspaceDiscrepancy2D([]Point2{{1, 1}}, nil, 4, nil) != 1 {
		t.Fatal("empty sample should give 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for directions=0")
		}
	}()
	HalfspaceDiscrepancy2D([]Point2{{1, 1}}, []Point2{{1, 1}}, 0, nil)
}

func TestExactHalfspaceDiscrepancyEdges(t *testing.T) {
	if ExactHalfspaceDiscrepancy2D(nil, nil) != 0 {
		t.Fatal("empty stream")
	}
	if ExactHalfspaceDiscrepancy2D([]Point2{{0, 0}}, nil) != 1 {
		t.Fatal("empty sample")
	}
	if d := ExactHalfspaceDiscrepancy2D([]Point2{{0, 0}, {1, 1}}, []Point2{{0, 0}, {1, 1}}); d > 1e-9 {
		t.Fatalf("identical sets discrepancy %v", d)
	}
}

func TestDepthTransfer2D(t *testing.T) {
	// End-to-end beta-center pipeline: center of a sample is nearly as
	// deep in the stream, up to the halfspace discrepancy.
	r := rng.New(6)
	stream := make([]Point2, 1500)
	for i := range stream {
		stream[i] = Point2{r.NormFloat64(), r.NormFloat64()}
	}
	sample := make([]Point2, 150)
	for i := range sample {
		sample[i] = stream[r.Intn(len(stream))]
	}
	c, depthS := Center2D(sample)
	depthX := Depth2D(c, stream)
	eps := HalfspaceDiscrepancy2D(stream, sample, 64, r)
	if depthX < depthS-eps-0.05 {
		t.Fatalf("2D depth transfer violated: sample %v, stream %v, eps %v", depthS, depthX, eps)
	}
}

func BenchmarkDepth2D(b *testing.B) {
	r := rng.New(1)
	pts := make([]Point2, 1000)
	for i := range pts {
		pts[i] = Point2{r.Float64(), r.Float64()}
	}
	c := Point2{0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Depth2D(c, pts)
	}
}

func BenchmarkHalfspaceDiscrepancy2D(b *testing.B) {
	r := rng.New(1)
	stream := make([]Point2, 2000)
	for i := range stream {
		stream[i] = Point2{r.Float64(), r.Float64()}
	}
	sample := stream[:200]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HalfspaceDiscrepancy2D(stream, sample, 32, nil)
	}
}

// Depth1D returns the halfspace depth of c in pts: the minimum, over the
// two closed rays through c, of the fraction of points they contain (0 for
// no points).
func Depth1D(c float64, pts []float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	le, ge := 0, 0
	for _, p := range pts {
		if p <= c {
			le++
		}
		if p >= c {
			ge++
		}
	}
	return math.Min(float64(le), float64(ge)) / float64(len(pts))
}

// ExactHalfspaceDiscrepancy2D, the oracle for HalfspaceDiscrepancy2D,
// computes the exact halfplane discrepancy by enumerating all combinatorially distinct directions (normals of lines
// through pairs of points of stream ∪ sample, perturbed to both sides).
// O(n^2) directions x O(n log n) each — use only for small inputs.
func ExactHalfspaceDiscrepancy2D(stream, sample []Point2) float64 {
	if len(stream) == 0 {
		return 0
	}
	if len(sample) == 0 {
		return 1
	}
	all := append(append([]Point2(nil), stream...), sample...)
	var dirs []float64
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			dx := all[j].X - all[i].X
			dy := all[j].Y - all[i].Y
			if dx == 0 && dy == 0 {
				continue
			}
			base := math.Atan2(dy, dx) + math.Pi/2
			// Perturb to both sides to capture open/closed breakpoints.
			dirs = append(dirs, base-1e-7, base+1e-7)
		}
	}
	dirs = append(dirs, 0, math.Pi/2) // axis-aligned fallbacks
	worst := 0.0
	ps := make([]float64, len(stream))
	qs := make([]float64, len(sample))
	for _, theta := range dirs {
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
