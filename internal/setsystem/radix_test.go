package setsystem

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"robustsample/internal/rng"
)

// TestRadixSortMatchesSlicesSort checks radixSort against slices.Sort on
// lengths around the pdqsort cutoff and on key spans from none (constant)
// through one, two and three bytes to the full int64 range.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	r := rng.New(11)
	gens := []struct {
		name string
		gen  func() int64
	}{
		{"constant", func() int64 { return -7 }},
		{"one-byte", func() int64 { return 1000 + r.Int63n(200) }},
		{"two-bytes", func() int64 { return r.Int63n(1 << 16) }},
		{"universe", func() int64 { return 1 + r.Int63n(1<<20) }},
		{"negative", func() int64 { return -1 - r.Int63n(1<<40) }},
		{"mixed-sign", func() int64 { return r.Int63n(1<<33) - 1<<32 }},
		{"full-span", func() int64 {
			switch r.Intn(8) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(r.Uint64())
		}},
	}
	lengths := []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 5003}
	for _, g := range gens {
		for _, n := range lengths {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = g.gen()
			}
			want := slices.Clone(xs)
			slices.Sort(want)
			got := slices.Clone(xs)
			radixSort(got, make([]int64, n+3)) // scratch may be longer than xs
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: radixSort disagrees with slices.Sort", g.name, n)
			}
		}
	}
}

// TestCdfScanLargeMatchesAccumulator compares the one-shot verdicts, whose
// sorts run on the radix path at these sizes, with the incremental engine,
// which never sorts the multisets: error and witness must agree exactly.
func TestCdfScanLargeMatchesAccumulator(t *testing.T) {
	r := rng.New(12)
	for _, sys := range []SetSystem{NewPrefixes(1 << 20), NewIntervals(1 << 20), NewSuffixes(1 << 20)} {
		for _, n := range []int{radixMinLen, 3000, 20000} {
			t.Run(fmt.Sprintf("%s/n=%d", sys.Name(), n), func(t *testing.T) {
				acc := sys.NewAccumulator()
				stream := make([]int64, n)
				var sample []int64
				for i := range stream {
					stream[i] = 1 + r.Int63n(1<<20)
					acc.AddStream(stream[i])
					if r.Intn(3) == 0 {
						sample = append(sample, stream[i])
						acc.AddSample(stream[i])
					}
				}
				if got, want := sys.MaxDiscrepancy(stream, sample), acc.Max(); got != want {
					t.Fatalf("one-shot %+v, accumulator %+v", got, want)
				}
			})
		}
	}
}

// TestCdfScanConcurrentBuffers runs one-shot verdicts of different sizes
// from several goroutines at once: the recycled sort buffers must never be
// shared between two calls in flight.
func TestCdfScanConcurrentBuffers(t *testing.T) {
	r := rng.New(14)
	sys := NewIntervals(1 << 20)
	type job struct {
		stream, sample []int64
		want           Discrepancy
	}
	jobs := make([]job, 16)
	for i := range jobs {
		stream := make([]int64, 100+r.Intn(4000))
		for k := range stream {
			stream[k] = 1 + r.Int63n(1<<20)
		}
		sample := stream[:len(stream)/5]
		jobs[i] = job{stream, sample, sys.MaxDiscrepancy(stream, sample)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				j := jobs[(g*5+rep)%len(jobs)]
				if got := sys.MaxDiscrepancy(j.stream, j.sample); got != j.want {
					t.Errorf("goroutine %d: verdict %+v, serial %+v", g, got, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkCdfScan(b *testing.B) {
	r := rng.New(13)
	stream := make([]int64, 20000)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
	}
	sample := stream[:843]
	sys := NewPrefixes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDiscrepancy = sys.MaxDiscrepancy(stream, sample)
	}
}

var sinkDiscrepancy Discrepancy
