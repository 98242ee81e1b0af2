package cluster

import (
	"math"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

func TestCostZeroAtPoints(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}}
	if Cost(pts, pts) != 0 {
		t.Fatal("cost with centers at every point must be 0")
	}
}

func TestCostKnownValue(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}}
	centers := []Point{{0, 0}}
	if c := Cost(pts, centers); c != 4 {
		t.Fatalf("cost = %v, want 4", c)
	}
}

func TestCostPanicsNoCenters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cost([]Point{{0, 0}}, nil)
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	r := rng.New(1)
	pts := GaussianMixture(3000, 3, 50, r.Split())
	centers := KMeans(pts, 3, 100, r.Split())
	if len(centers) != 3 {
		t.Fatalf("got %d centers", len(centers))
	}
	// Each recovered center must be within 1.5 units of a true blob
	// center (radius 50, unit noise: blobs are far apart).
	for _, c := range centers {
		best := math.Inf(1)
		for j := 0; j < 3; j++ {
			theta := 2 * math.Pi * float64(j) / 3
			true_ := Point{X: 50 * math.Cos(theta), Y: 50 * math.Sin(theta)}
			if d := math.Sqrt(sqDist(c, true_)); d < best {
				best = d
			}
		}
		if best > 1.5 {
			t.Fatalf("center %v is %v away from any true blob", c, best)
		}
	}
}

func TestKMeansCostDecreasesVsRandomCenters(t *testing.T) {
	r := rng.New(2)
	pts := GaussianMixture(1000, 4, 30, r.Split())
	centers := KMeans(pts, 4, 50, r.Split())
	randomCenters := []Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	if Cost(pts, centers) >= Cost(pts, randomCenters) {
		t.Fatal("k-means no better than arbitrary centers")
	}
}

func TestKMeansValidation(t *testing.T) {
	r := rng.New(3)
	for _, f := range []func(){
		func() { KMeans(nil, 2, 10, r) },
		func() { KMeans([]Point{{0, 0}}, 0, 10, r) },
		func() { KMeans([]Point{{0, 0}}, 1, 0, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	r := rng.New(4)
	pts := []Point{{0, 0}, {5, 5}}
	centers := KMeans(pts, 10, 10, r)
	if len(centers) != 2 {
		t.Fatalf("k should clamp to n, got %d centers", len(centers))
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	r := rng.New(5)
	pts := []Point{{3, 3}, {3, 3}, {3, 3}}
	centers := KMeans(pts, 2, 10, r)
	if Cost(pts, centers) != 0 {
		t.Fatal("identical points must have zero cost")
	}
}

func TestCostRatioNearOneWithGoodSample(t *testing.T) {
	r := rng.New(6)
	stream := GaussianMixture(5000, 3, 40, r.Split())
	// Reservoir-sample the stream as the paper's pipeline would.
	res := sampler.NewReservoir[Point](500)
	sr := r.Split()
	for _, p := range stream {
		res.Offer(p, sr)
	}
	ratio := CostRatio(stream, res.View(), 3, 100, r.Split())
	if ratio > 1.15 {
		t.Fatalf("sample-based clustering cost ratio %v too high", ratio)
	}
	if ratio < 0.95 {
		t.Fatalf("ratio %v suspiciously below 1 (full-fit should be at least as good)", ratio)
	}
}

func TestCostRatioDegenerate(t *testing.T) {
	r := rng.New(7)
	pts := []Point{{1, 1}, {1, 1}}
	if ratio := CostRatio(pts, pts, 1, 10, r); ratio != 1 {
		t.Fatalf("degenerate ratio %v, want 1", ratio)
	}
}

func TestGaussianMixtureValidation(t *testing.T) {
	r := rng.New(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GaussianMixture(0, 1, 1, r)
}

func TestGaussianMixtureSpread(t *testing.T) {
	r := rng.New(9)
	pts := GaussianMixture(3000, 2, 100, r)
	// Two blobs at angle 0 and pi: x ~ +-100.
	left, right := 0, 0
	for _, p := range pts {
		if p.X > 50 {
			right++
		}
		if p.X < -50 {
			left++
		}
	}
	if left+right < 2900 {
		t.Fatalf("blobs not separated: left=%d right=%d", left, right)
	}
	if left == 0 || right == 0 {
		t.Fatal("all mass in one blob")
	}
}

func BenchmarkKMeans(b *testing.B) {
	r := rng.New(1)
	pts := GaussianMixture(2000, 4, 30, r.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(pts, 4, 25, r.Split())
	}
}
