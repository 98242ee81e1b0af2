package rng

import "testing"

// The bulk Fill methods replace per-call draws on the batch-ingest hot path.
// Their contract is exact: filling a buffer must consume precisely one
// generator step per emitted value, leaving the generator in the same state
// as the per-call loop.
// These tests pin that bit-identity, including across chunk-boundary splits
// of the same logical sequence, so bulk and per-call consumers can be mixed
// freely without perturbing any golden table in the repository.

// chunkSplits covers degenerate, prime-sized, and power-of-two chunkings.
var chunkSplits = [][]int{
	{64},
	{1, 1, 1, 61},
	{3, 7, 13, 41},
	{32, 32},
	{63, 1},
}

func TestFillUniform64MatchesUint64(t *testing.T) {
	for _, split := range chunkSplits {
		a := New(12345)
		b := New(12345)
		var bulk, calls []uint64
		for _, n := range split {
			buf := make([]uint64, n)
			a.FillUniform64(buf)
			bulk = append(bulk, buf...)
		}
		for range bulk {
			calls = append(calls, b.Uint64())
		}
		for i := range bulk {
			if bulk[i] != calls[i] {
				t.Fatalf("split %v draw %d: bulk %#x, per-call %#x", split, i, bulk[i], calls[i])
			}
		}
		assertSameState(t, a, b)
	}
}

func TestFillFloat64MatchesFloat64(t *testing.T) {
	for _, split := range chunkSplits {
		a := New(777)
		b := New(777)
		var bulk []float64
		for _, n := range split {
			buf := make([]float64, n)
			a.FillFloat64(buf)
			bulk = append(bulk, buf...)
		}
		for i, v := range bulk {
			if w := b.Float64(); v != w {
				t.Fatalf("split %v draw %d: bulk %v, per-call %v", split, i, v, w)
			}
		}
		assertSameState(t, a, b)
	}
}

func assertSameState(t *testing.T, a, b *RNG) {
	t.Helper()
	ahi, alo := a.State()
	bhi, blo := b.State()
	if ahi != bhi || alo != blo {
		t.Fatalf("generator states diverged: bulk (%#x,%#x) vs per-call (%#x,%#x)", ahi, alo, bhi, blo)
	}
}
