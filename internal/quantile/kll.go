package quantile

import (
	"cmp"
	"math"
	"slices"

	"robustsample/internal/rng"
)

// KLL is the randomized compactor-based quantile sketch of Karnin, Lang and
// Liberty [KLL16], the asymptotically optimal static sketch the paper cites.
// Each level h holds a buffer; when a buffer fills, it is sorted and either
// its odd- or even-indexed half (chosen by a fair coin) is promoted to level
// h+1, doubling the weight. Capacities shrink geometrically with depth
// (ratio 2/3) so total space is O(k).
//
// KLL's guarantee is for a stream fixed in advance. Against the adaptive
// adversary of the paper it has no known robustness guarantee; the
// experiments include it to contrast "optimal static" with "robust".
type KLL struct {
	// K is the top-level capacity parameter; rank error is O(1/K) with
	// high probability in the static setting.
	K int

	levels [][]int64
	rng    *rng.RNG
	n      int
}

// NewKLL returns an empty KLL sketch with parameter k, drawing compaction
// coins from r. It panics unless k >= 4.
func NewKLL(k int, r *rng.RNG) *KLL {
	if k < 4 {
		panic("quantile: KLL needs k >= 4")
	}
	if r == nil {
		panic("quantile: KLL needs an RNG")
	}
	return &KLL{K: k, rng: r, levels: make([][]int64, 1)}
}

// Name implements Sketch.
func (s *KLL) Name() string { return "kll" }

// capacityAt returns the buffer capacity of level h counted from the top
// (level 0 is the raw-input level; deeper levels are higher h meaning the
// weightier compacted data). Capacity shrinks from K by factor 2/3 per
// level away from the highest level, floored at 2.
func (s *KLL) capacityAt(h int) int {
	top := len(s.levels) - 1
	c := float64(s.K) * math.Pow(2.0/3.0, float64(top-h))
	if c < 2 {
		return 2
	}
	return int(math.Ceil(c))
}

// Insert implements Sketch.
func (s *KLL) Insert(x int64) {
	s.n++
	s.levels[0] = append(s.levels[0], x)
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) <= s.capacityAt(h) {
			break
		}
		s.compact(h)
	}
}

// compact halves level h into level h+1.
func (s *KLL) compact(h int) {
	buf := s.levels[h]
	slices.Sort(buf)
	offset := 0
	if s.rng.Bernoulli(0.5) {
		offset = 1
	}
	if h+1 == len(s.levels) {
		s.levels = append(s.levels, nil)
	}
	for i := offset; i < len(buf); i += 2 {
		s.levels[h+1] = append(s.levels[h+1], buf[i])
	}
	s.levels[h] = s.levels[h][:0]
}

// Rank implements Sketch: each element at level h carries weight 2^h.
func (s *KLL) Rank(x int64) float64 {
	total := 0.0
	weight := 1.0
	for _, level := range s.levels {
		for _, v := range level {
			if v <= x {
				total += weight
			}
		}
		weight *= 2
	}
	return total
}

// Quantile implements Sketch by scanning the weighted sorted union.
func (s *KLL) Quantile(q float64) int64 {
	type wv struct {
		v int64
		w float64
	}
	var items []wv
	weight := 1.0
	for _, level := range s.levels {
		for _, v := range level {
			items = append(items, wv{v, weight})
		}
		weight *= 2
	}
	if len(items) == 0 {
		panic("quantile: empty sketch")
	}
	slices.SortFunc(items, func(a, b wv) int { return cmp.Compare(a.v, b.v) })
	totalW := 0.0
	for _, it := range items {
		totalW += it.w
	}
	target := q * totalW
	acc := 0.0
	for _, it := range items {
		acc += it.w
		if acc >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// Size implements Sketch.
func (s *KLL) Size() int {
	total := 0
	for _, level := range s.levels {
		total += len(level)
	}
	return total
}
