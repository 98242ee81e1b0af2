// Package cluster implements the clustering-acceleration application of
// Section 1.2: instead of clustering the full stream, draw a (robust)
// random sample, run the clustering algorithm on the sample, and
// extrapolate — the paper's generic framework for adversarial streams.
//
// The clustering algorithm is Lloyd's k-means with k-means++ seeding over
// points in the plane. The experiment metric is the cost ratio between
// centers fit on the sample (evaluated on the full stream) and centers fit
// on the full stream directly.
package cluster

import (
	"math"

	"robustsample/internal/rng"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

func sqDist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Cost returns the k-means objective: the sum over points of the squared
// distance to the nearest center. It panics if centers is empty.
func Cost(pts, centers []Point) float64 {
	if len(centers) == 0 {
		panic("cluster: no centers")
	}
	total := 0.0
	for _, p := range pts {
		best := math.Inf(1)
		for _, c := range centers {
			if d := sqDist(p, c); d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// seedPlusPlus picks k initial centers by k-means++ sampling.
func seedPlusPlus(pts []Point, k int, r *rng.RNG) []Point {
	centers := make([]Point, 0, k)
	centers = append(centers, pts[r.Intn(len(pts))])
	dists := make([]float64, len(pts))
	for len(centers) < k {
		total := 0.0
		last := centers[len(centers)-1]
		for i, p := range pts {
			d := sqDist(p, last)
			if len(centers) == 1 || d < dists[i] {
				dists[i] = d
			}
			total += dists[i]
		}
		if total == 0 {
			// All points coincide with existing centers; duplicate.
			centers = append(centers, pts[r.Intn(len(pts))])
			continue
		}
		target := r.Float64() * total
		acc := 0.0
		chosen := len(pts) - 1
		for i, d := range dists {
			acc += d
			if acc >= target {
				chosen = i
				break
			}
		}
		centers = append(centers, pts[chosen])
	}
	return centers
}

// KMeans runs Lloyd's algorithm with k-means++ seeding until convergence or
// maxIter iterations, returning the centers. It panics on invalid inputs.
func KMeans(pts []Point, k, maxIter int, r *rng.RNG) []Point {
	if len(pts) == 0 {
		panic("cluster: no points")
	}
	if k < 1 {
		panic("cluster: k must be >= 1")
	}
	if k > len(pts) {
		k = len(pts)
	}
	if maxIter < 1 {
		panic("cluster: maxIter must be >= 1")
	}
	centers := seedPlusPlus(pts, k, r)
	assign := make([]int, len(pts))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range pts {
			best := math.Inf(1)
			bestJ := assign[i]
			for j, c := range centers {
				if d := sqDist(p, c); d < best {
					best = d
					bestJ = j
				}
			}
			if bestJ != assign[i] {
				assign[i] = bestJ
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; empty clusters keep their center.
		var sx, sy [64]float64
		var cnt [64]int
		if k > 64 {
			panic("cluster: k too large")
		}
		for i := range sx[:k] {
			sx[i], sy[i], cnt[i] = 0, 0, 0
		}
		for i, p := range pts {
			j := assign[i]
			sx[j] += p.X
			sy[j] += p.Y
			cnt[j]++
		}
		for j := 0; j < k; j++ {
			if cnt[j] > 0 {
				centers[j] = Point{X: sx[j] / float64(cnt[j]), Y: sy[j] / float64(cnt[j])}
			}
		}
	}
	return centers
}

// SampleAndCluster is the paper's pipeline: cluster the provided sample and
// return the centers for use on the full stream.
func SampleAndCluster(sample []Point, k, maxIter int, r *rng.RNG) []Point {
	return KMeans(sample, k, maxIter, r)
}

// CostRatio evaluates the pipeline: it returns
// Cost(stream, centersFromSample) / Cost(stream, centersFromStream).
// Values near 1 mean the sample-based clustering is as good as clustering
// the full data; the ratio is the headline metric of experiment E13.
func CostRatio(stream, sample []Point, k, maxIter int, r *rng.RNG) float64 {
	fromSample := SampleAndCluster(sample, k, maxIter, r.Split())
	fromStream := KMeans(stream, k, maxIter, r.Split())
	num := Cost(stream, fromSample)
	den := Cost(stream, fromStream)
	if den == 0 {
		if num == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// GaussianMixture draws n points from k well-separated Gaussian blobs laid
// out on a circle of the given radius with unit component deviation; the
// canonical clusterable workload for E13.
func GaussianMixture(n, k int, radius float64, r *rng.RNG) []Point {
	if n < 1 || k < 1 {
		panic("cluster: need n, k >= 1")
	}
	out := make([]Point, n)
	for i := range out {
		j := r.Intn(k)
		theta := 2 * math.Pi * float64(j) / float64(k)
		out[i] = Point{
			X: radius*math.Cos(theta) + r.NormFloat64(),
			Y: radius*math.Sin(theta) + r.NormFloat64(),
		}
	}
	return out
}
