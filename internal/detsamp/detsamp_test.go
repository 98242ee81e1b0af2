package detsamp

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"robustsample/internal/rng"
)

// N returns the number of inserted elements.
func (m *MergeReduce) N() int { return m.n }

// mustNew unwraps a constructor result whose parameters are valid by
// construction in these tests.
func mustNew[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestValidation(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{second(New(1)), ErrBadBuffer},
		{second(NewForEps(0, 10)), ErrBadEps},
		{second(NewForEps(1, 10)), ErrBadEps},
		{second(NewForEps(0.1, 0)), ErrBadHint},
	}
	for i, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Fatalf("case %d: err = %v, want %v", i, c.err, c.want)
		}
	}
	// Querying an empty summary remains an invariant panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty Quantile")
		}
	}()
	mustNew(New(4)).Quantile(0.5)
}

func second[T any](_ T, err error) error { return err }

func TestOddBufferRoundedUp(t *testing.T) {
	m := mustNew(New(3))
	if m.B != 4 {
		t.Fatalf("B = %d, want 4", m.B)
	}
}

func TestWeightConservation(t *testing.T) {
	r := rng.New(1)
	m := mustNew(New(16))
	const n = 12345
	for i := 0; i < n; i++ {
		m.Insert(r.Int63n(1 << 20))
	}
	total := int64(0)
	for _, wv := range m.WeightedValues() {
		total += wv.Weight
	}
	if total != n {
		t.Fatalf("total weight %d, want %d", total, n)
	}
	if m.N() != n {
		t.Fatal("N mismatch")
	}
}

func TestSpaceLogarithmic(t *testing.T) {
	r := rng.New(2)
	m := mustNew(New(64))
	const n = 200000
	for i := 0; i < n; i++ {
		m.Insert(r.Int63n(1 << 30))
	}
	// Space: B per occupied level, ~log2(n/B) levels.
	maxSpace := 64 * (int(math.Log2(float64(n)/64)) + 3)
	if m.Size() > maxSpace {
		t.Fatalf("size %d exceeds O(B log(n/B)) = %d", m.Size(), maxSpace)
	}
}

func TestDeterministic(t *testing.T) {
	mk := func() []WeightedValue {
		m := mustNew(New(8))
		for i := 0; i < 1000; i++ {
			m.Insert(int64(i*7919%1000 + 1))
		}
		return m.WeightedValues()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic contents")
		}
	}
}

func TestErrorWithinBoundRandomOrder(t *testing.T) {
	r := rng.New(3)
	eps := 0.05
	const n = 50000
	m := mustNew(NewForEps(eps, n))
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = 1 + r.Int63n(1<<20)
		m.Insert(stream[i])
	}
	err := PrefixDiscrepancy(stream, m.WeightedValues())
	if err > eps {
		t.Fatalf("deterministic summary error %v exceeds eps %v", err, eps)
	}
}

func TestErrorWithinBoundSortedOrder(t *testing.T) {
	eps := 0.05
	const n = 50000
	for _, dir := range []string{"asc", "desc"} {
		m := mustNew(NewForEps(eps, n))
		stream := make([]int64, n)
		for i := range stream {
			if dir == "asc" {
				stream[i] = int64(i + 1)
			} else {
				stream[i] = int64(n - i)
			}
			m.Insert(stream[i])
		}
		err := PrefixDiscrepancy(stream, m.WeightedValues())
		if err > eps {
			t.Fatalf("%s order: error %v exceeds eps %v", dir, err, eps)
		}
	}
}

func TestErrorWithinBoundAdversarialPermutation(t *testing.T) {
	// Determinism means ANY order is fine; exercise a bit-reversal
	// permutation, a classically bad case for naive buffering.
	eps := 0.05
	const bits = 15
	const n = 1 << bits
	m := mustNew(NewForEps(eps, n))
	stream := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		rev := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				rev |= 1 << (bits - 1 - b)
			}
		}
		v := int64(rev + 1)
		stream = append(stream, v)
		m.Insert(v)
	}
	err := PrefixDiscrepancy(stream, m.WeightedValues())
	if err > eps {
		t.Fatalf("bit-reversal order: error %v exceeds eps %v", err, eps)
	}
}

// TestErrorBoundFormula pins the bound to the package doc's closed form:
// L/(2B) with L = ceil(log2(n/B)) levels.
func TestErrorBoundFormula(t *testing.T) {
	m := mustNew(New(32))
	for i := 0; i < 10000; i++ {
		m.Insert(int64(i))
	}
	want := math.Ceil(math.Log2(10000.0/32)) / 64
	if m.ErrorBound() != want {
		t.Fatalf("ErrorBound %v, want %v", m.ErrorBound(), want)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	r := rng.New(4)
	const n = 30000
	m := mustNew(NewForEps(0.02, n))
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = r.Int63n(1 << 20)
		m.Insert(stream[i])
	}
	sorted := append([]int64(nil), stream...)
	slices.Sort(sorted)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := m.Quantile(q)
		// True rank of the returned value must be within 3% of q*n.
		rank := sort.Search(len(sorted), func(i int) bool { return sorted[i] > got })
		if math.Abs(float64(rank)-q*n) > 0.03*n {
			t.Fatalf("q=%v: returned value has rank %d, want ~%v", q, rank, q*n)
		}
	}
}

func TestRankMatchesWeightedValues(t *testing.T) {
	m := mustNew(New(4))
	for _, v := range []int64{5, 1, 9, 3} { // exactly one full buffer
		m.Insert(v)
	}
	// Buffer full: level 0 holds sorted [1,3,5,9] at weight 1.
	if got := m.Rank(4); got != 2 {
		t.Fatalf("Rank(4) = %v, want 2", got)
	}
	if got := m.Rank(0); got != 0 {
		t.Fatalf("Rank(0) = %v, want 0", got)
	}
	if got := m.Rank(9); got != 4 {
		t.Fatalf("Rank(9) = %v, want 4", got)
	}
}

func TestPartialBufferIncluded(t *testing.T) {
	m := mustNew(New(8))
	m.Insert(42)
	wvs := m.WeightedValues()
	if len(wvs) != 1 || wvs[0].Value != 42 || wvs[0].Weight != 1 {
		t.Fatalf("partial buffer contents wrong: %v", wvs)
	}
	if m.Quantile(0.5) != 42 {
		t.Fatal("quantile from partial buffer wrong")
	}
}

func TestPrefixDiscrepancyEdges(t *testing.T) {
	if PrefixDiscrepancy(nil, nil) != 0 {
		t.Fatal("empty stream should give 0")
	}
	if PrefixDiscrepancy([]int64{1}, nil) != 1 {
		t.Fatal("empty summary should give 1")
	}
	sum := []WeightedValue{{Value: 1, Weight: 1}}
	if PrefixDiscrepancy([]int64{1}, sum) != 0 {
		t.Fatal("perfect summary should give 0")
	}
}

func TestReduceKeepsOddIndexed(t *testing.T) {
	a := []int64{1, 3, 5, 7}
	b := []int64{2, 4, 6, 8}
	out := reduce(a, b)
	want := []int64{2, 4, 6, 8}
	if len(out) != 4 {
		t.Fatalf("reduce output length %d", len(out))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("reduce = %v, want %v", out, want)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	r := rng.New(1)
	m := mustNew(NewForEps(0.01, 1<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(r.Int63n(1 << 30))
	}
}

func BenchmarkPrefixDiscrepancy(b *testing.B) {
	r := rng.New(1)
	m := mustNew(NewForEps(0.01, 100000))
	stream := make([]int64, 100000)
	for i := range stream {
		stream[i] = r.Int63n(1 << 20)
		m.Insert(stream[i])
	}
	wvs := m.WeightedValues()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrefixDiscrepancy(stream, wvs)
	}
}
