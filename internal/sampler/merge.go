package sampler

import (
	"slices"

	"robustsample/internal/rng"
)

// This file implements merging of reservoir samples, the primitive behind
// continuous sampling from distributed streams (Chung-Tirthapura-Woodruff
// [CTW16] and Cormode et al. [CMYZ12], discussed in the paper's Section
// 1.3): each site maintains a local uniform sample of its substream, and a
// coordinator combines them into a uniform sample of the union without
// seeing the raw streams.
//
// MergeSamples draws a without-replacement sample of size k from the union
// of two uniform samples by weighted interleaving: each draw takes the next
// element from side A with probability nA'/(nA'+nB'), where nA', nB' are
// the remaining (unsampled) population sizes represented by each side. This
// yields exactly the hypergeometric composition of a uniform k-subset of
// the union.

// MergeSamples combines sampleA (a uniform without-replacement sample of a
// population of size nA) and sampleB (likewise for nB) into a uniform
// without-replacement sample of size k of the combined population. It
// panics if either sample is larger than its population, or if
// k > len(sampleA) + len(sampleB) with k also exceeding what the populations
// could supply. The inputs are not mutated; elements are consumed in a
// randomized order so no positional bias leaks from the input samples.
// The result is freshly allocated; a fold over many samples uses a Merger.
func MergeSamples[T any](sampleA []T, nA int, sampleB []T, nB int, k int, r *rng.RNG) []T {
	var m Merger[T]
	return m.Merge(sampleA, nA, sampleB, nB, k, r)
}

// Merger is a reusable MergeSamples: it owns the shuffled copies of both
// sides and the output buffer, so a fold over many samples allocates only
// while its buffers grow. The zero value is ready to use; a Merger is not
// safe for concurrent use.
type Merger[T any] struct {
	a, b, out []T
}

// Merge is MergeSamples with m's buffers: the same arguments, panics and
// RNG draws, and the same result. The result aliases m's output buffer
// and is valid until the next Merge, which accepts it back as sampleA, so
// a left fold is merged = m.Merge(merged, n, next, nNext, k, r).
func (m *Merger[T]) Merge(sampleA []T, nA int, sampleB []T, nB int, k int, r *rng.RNG) []T {
	if nA < len(sampleA) || nB < len(sampleB) {
		panic("sampler: population smaller than its sample")
	}
	if k < 0 {
		panic("sampler: negative merge size")
	}
	total := nA + nB
	if k > total {
		k = total
	}
	if k > len(sampleA)+len(sampleB) {
		panic("sampler: merge size exceeds available sampled elements")
	}

	// Shuffle copies so consumption order within each side is uniform.
	// Both sides are copied before out is written, so sampleA may be the
	// previous result.
	a := append(grow(m.a, len(sampleA), k), sampleA...)
	b := append(grow(m.b, len(sampleB), k), sampleB...)
	m.a, m.b = a, b
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })

	out := m.out[:0]
	if out == nil || cap(out) < k {
		out = make([]T, 0, k)
	}
	remA, remB := nA, nB
	for len(out) < k {
		// Draw from A with probability remA / (remA + remB). If a side
		// has run out of sampled elements, its remaining population can
		// no longer be represented; fall back to the other side. (This
		// is the standard coordinator behaviour: local sample sizes are
		// provisioned so exhaustion is a low-probability event.)
		takeA := false
		switch {
		case len(a) == 0 && len(b) == 0:
			m.out = out
			return out
		case len(a) == 0:
			takeA = false
		case len(b) == 0:
			takeA = true
		default:
			takeA = r.Float64()*float64(remA+remB) < float64(remA)
		}
		if takeA {
			out = append(out, a[len(a)-1])
			a = a[:len(a)-1]
			remA--
		} else {
			out = append(out, b[len(b)-1])
			b = b[:len(b)-1]
			remB--
		}
	}
	m.out = out
	return out
}

// grow returns buf emptied, with room for n elements. A buffer that must
// grow is sized for at least k, the merge size, so a fold over samples of
// at most k elements grows each buffer once.
func grow[T any](buf []T, n, k int) []T {
	if cap(buf) < n {
		buf = make([]T, 0, max(n, k))
	}
	return buf[:0]
}

// MergeFrom folds other's weighted sample into w. A-Res assigns every
// stream element an independent key u^(1/weight) and keeps the K largest;
// the keys of two disjoint substreams are jointly independent, so the K
// largest keys across both reservoirs are exactly the A-Res sample of the
// concatenated stream — the merge is lossless and needs no fresh
// randomness. Ties (measure zero) break toward the receiver's elements.
// other is not modified.
func (w *WeightedReservoir[T]) MergeFrom(other *WeightedReservoir[T]) {
	type pair struct {
		key  float64
		item T
	}
	pairs := make([]pair, 0, len(w.keys)+len(other.keys))
	for i, k := range w.keys {
		pairs = append(pairs, pair{k, w.items[i]})
	}
	for i, k := range other.keys {
		pairs = append(pairs, pair{k, other.items[i]})
	}
	// Descending by key, stable so receiver-side elements win ties.
	slices.SortStableFunc(pairs, func(a, b pair) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		}
		return 0
	})
	if len(pairs) > w.K {
		pairs = pairs[:w.K]
	}
	rounds := w.rounds + other.rounds
	w.keys = w.keys[:0]
	w.items = w.items[:0]
	for _, p := range pairs {
		w.push(p.key, p.item)
	}
	w.rounds = rounds
	w.delta.clear()
}
