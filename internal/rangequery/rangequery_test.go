package rangequery

import (
	"math"
	"testing"
	"testing/quick"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

// Contains reports whether p lies inside the box in the first d coords:
// the brute-force oracle for Counter.CountBox and MaxBoxDiscrepancy.
func (b Box) Contains(p Point, d int) bool {
	for j := 0; j < d; j++ {
		if p[j] < b.Lo[j] || p[j] > b.Hi[j] {
			return false
		}
	}
	return true
}

func TestGridValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(0, 1) },
		func() { NewGrid(5, 0) },
		func() { NewGrid(5, 4) },
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

func TestGridLogCardinality(t *testing.T) {
	g := NewGrid(10, 2)
	want := 2 * math.Log(55)
	if math.Abs(g.LogCardinality()-want) > 1e-12 {
		t.Fatalf("logCard = %v, want %v", g.LogCardinality(), want)
	}
}

func TestCounterMatchesBruteForce1D(t *testing.T) {
	g := NewGrid(10, 1)
	c := NewCounter(g)
	r := rng.New(1)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = g.RandomPoint(r)
		c.Add(pts[i])
	}
	for lo := int64(1); lo <= 10; lo++ {
		for hi := lo; hi <= 10; hi++ {
			b := Box{Lo: Point{lo}, Hi: Point{hi}}
			want := int64(0)
			for _, p := range pts {
				if b.Contains(p, 1) {
					want++
				}
			}
			if got := c.CountBox(b); got != want {
				t.Fatalf("1D box [%d,%d]: got %d, want %d", lo, hi, got, want)
			}
		}
	}
}

func TestCounterMatchesBruteForce2D(t *testing.T) {
	g := NewGrid(8, 2)
	c := NewCounter(g)
	r := rng.New(2)
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = g.RandomPoint(r)
		c.Add(pts[i])
	}
	for trial := 0; trial < 200; trial++ {
		var b Box
		for j := 0; j < 2; j++ {
			a := 1 + r.Int63n(8)
			z := 1 + r.Int63n(8)
			if a > z {
				a, z = z, a
			}
			b.Lo[j], b.Hi[j] = a, z
		}
		want := int64(0)
		for _, p := range pts {
			if b.Contains(p, 2) {
				want++
			}
		}
		if got := c.CountBox(b); got != want {
			t.Fatalf("2D box %+v: got %d, want %d", b, got, want)
		}
	}
}

func TestCounterMatchesBruteForce3D(t *testing.T) {
	g := NewGrid(6, 3)
	c := NewCounter(g)
	r := rng.New(3)
	pts := make([]Point, 400)
	for i := range pts {
		pts[i] = g.RandomPoint(r)
		c.Add(pts[i])
	}
	for trial := 0; trial < 200; trial++ {
		var b Box
		for j := 0; j < 3; j++ {
			a := 1 + r.Int63n(6)
			z := 1 + r.Int63n(6)
			if a > z {
				a, z = z, a
			}
			b.Lo[j], b.Hi[j] = a, z
		}
		want := int64(0)
		for _, p := range pts {
			if b.Contains(p, 3) {
				want++
			}
		}
		if got := c.CountBox(b); got != want {
			t.Fatalf("3D box %+v: got %d, want %d", b, got, want)
		}
	}
}

func TestCounterClampsAndEmptyBoxes(t *testing.T) {
	g := NewGrid(5, 2)
	c := NewCounter(g)
	c.Add(Point{3, 3})
	// Box covering everything, specified beyond grid bounds.
	b := Box{Lo: Point{-10, -10}, Hi: Point{99, 99}}
	if c.CountBox(b) != 1 {
		t.Fatal("clamped box should count the point")
	}
	// Inverted box.
	b = Box{Lo: Point{4, 4}, Hi: Point{2, 2}}
	if c.CountBox(b) != 0 {
		t.Fatal("inverted box should count zero")
	}
}

func TestCounterRejectsOutOfGrid(t *testing.T) {
	g := NewGrid(5, 2)
	c := NewCounter(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Add(Point{6, 1})
}

func TestCounterRejectsHugeGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounter(NewGrid(1<<20, 3))
}

func TestCounterIncrementalAddAfterQuery(t *testing.T) {
	g := NewGrid(4, 1)
	c := NewCounter(g)
	c.Add(Point{1})
	all := Box{Lo: Point{1}, Hi: Point{4}}
	if c.CountBox(all) != 1 {
		t.Fatal("first count wrong")
	}
	c.Add(Point{4})
	if c.CountBox(all) != 2 {
		t.Fatal("count after re-add wrong; prefix sums stale")
	}
}

func TestMaxBoxDiscrepancyPerfectSample(t *testing.T) {
	g := NewGrid(6, 2)
	r := rng.New(5)
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = g.RandomPoint(r)
	}
	err, _ := MaxBoxDiscrepancy(g, pts, pts)
	if err != 0 {
		t.Fatalf("identical sample discrepancy %v", err)
	}
}

func TestMaxBoxDiscrepancyEmptySample(t *testing.T) {
	g := NewGrid(4, 1)
	pts := []Point{{1}, {2}}
	err, box := MaxBoxDiscrepancy(g, pts, nil)
	if err != 1 {
		t.Fatalf("empty sample discrepancy %v, want 1", err)
	}
	if !box.Contains(Point{1}, 1) || !box.Contains(Point{2}, 1) {
		t.Fatalf("witness box %+v misses the mass", box)
	}
}

func TestMaxBoxDiscrepancyEmptyStream(t *testing.T) {
	g := NewGrid(4, 1)
	err, _ := MaxBoxDiscrepancy(g, nil, nil)
	if err != 0 {
		t.Fatal("empty stream discrepancy should be 0")
	}
}

func TestMaxBoxDiscrepancyWitnessAchieves(t *testing.T) {
	g := NewGrid(5, 2)
	r := rng.New(6)
	stream := make([]Point, 60)
	for i := range stream {
		stream[i] = g.RandomPoint(r)
	}
	sample := stream[:10]
	err, box := MaxBoxDiscrepancy(g, stream, sample)
	inStream, inSample := 0, 0
	for _, p := range stream {
		if box.Contains(p, 2) {
			inStream++
		}
	}
	for _, p := range sample {
		if box.Contains(p, 2) {
			inSample++
		}
	}
	got := math.Abs(float64(inStream)/float64(len(stream)) - float64(inSample)/float64(len(sample)))
	if math.Abs(got-err) > 1e-12 {
		t.Fatalf("witness achieves %v, reported %v", got, err)
	}
}

func TestMaxBoxDiscrepancyBounded(t *testing.T) {
	g := NewGrid(4, 2)
	r := rng.New(7)
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%30) + 1
		s := int(sRaw%10) + 1
		stream := make([]Point, n)
		for i := range stream {
			stream[i] = g.RandomPoint(r)
		}
		sample := make([]Point, s)
		for i := range sample {
			sample[i] = g.RandomPoint(r)
		}
		err, _ := MaxBoxDiscrepancy(g, stream, sample)
		return err >= 0 && err <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCornerStufferTargetsCorners(t *testing.T) {
	g := NewGrid(8, 2)
	cs := NewCornerStuffer(g)
	r := rng.New(8)
	corners := map[Point]bool{}
	for _, c := range cornerCells(g) {
		corners[c] = true
	}
	for i := 0; i < 100; i++ {
		p := cs.Next(nil, r)
		if !corners[p] {
			t.Fatalf("corner stuffer emitted non-corner %v", p)
		}
	}
}

func TestCornerStufferBoundedByTheorem(t *testing.T) {
	// Theorem 1.2 over the box system: at sample size
	// k = 2(ln|R| + ln(2/delta))/eps^2, even the adaptive corner stuffer
	// must leave the discrepancy at or below eps. Also check the error
	// shrinks as k grows (by roughly sqrt scaling).
	g := NewGrid(8, 2)
	root := rng.New(9)
	run := func(k int) float64 {
		r := root.Split()
		cs := NewCornerStuffer(g)
		res := sampler.NewReservoir[Point](k)
		var stream []Point
		const n = 3000
		for i := 0; i < n; i++ {
			p := cs.Next(res.View(), r)
			stream = append(stream, p)
			res.Offer(p, r)
		}
		err, _ := MaxBoxDiscrepancy(g, stream, res.View())
		return err
	}
	const trials = 5
	mean := func(k int) float64 {
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += run(k)
		}
		return sum / trials
	}
	small, large := mean(16), mean(1024)
	// Theorem 1.2 eps at k=1024, delta=0.1.
	eps := math.Sqrt(2 * (g.LogCardinality() + math.Log(20)) / 1024)
	if large > eps {
		t.Fatalf("robust-size sample error %v exceeds theory eps %v", large, eps)
	}
	if large >= small {
		t.Fatalf("error did not shrink with k: k=16 -> %v, k=1024 -> %v", small, large)
	}
}

func TestCornerStufferReset(t *testing.T) {
	g := NewGrid(4, 1)
	cs := NewCornerStuffer(g)
	r := rng.New(10)
	cs.Next(nil, r)
	cs.Reset()
	if cs.streamC.N() != 0 {
		t.Fatal("reset did not clear stream history")
	}
}

func TestCornerCellCount(t *testing.T) {
	if len(cornerCells(NewGrid(5, 1))) != 2 {
		t.Fatal("1D should have 2 corners")
	}
	if len(cornerCells(NewGrid(5, 2))) != 4 {
		t.Fatal("2D should have 4 corners")
	}
	if len(cornerCells(NewGrid(5, 3))) != 8 {
		t.Fatal("3D should have 8 corners")
	}
}

func BenchmarkCountBox2D(b *testing.B) {
	g := NewGrid(32, 2)
	c := NewCounter(g)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		c.Add(g.RandomPoint(r))
	}
	box := Box{Lo: Point{5, 5}, Hi: Point{20, 20}}
	c.CountBox(box) // force build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CountBox(box)
	}
}

func BenchmarkMaxBoxDiscrepancy2D(b *testing.B) {
	g := NewGrid(16, 2)
	r := rng.New(1)
	stream := make([]Point, 5000)
	for i := range stream {
		stream[i] = g.RandomPoint(r)
	}
	sample := stream[:500]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxBoxDiscrepancy(g, stream, sample)
	}
}
