package sketch

import (
	"fmt"
	"slices"
)

// Universe maps values of an arbitrary element type T onto the well-ordered
// integer universe U = {1, ..., Size()} the paper's analysis (and every
// engine in this repository) works over. The mapping must be a strictly
// order-preserving bijection between the representable values and [1, N]:
// range queries, quantiles and discrepancy witnesses are all statements
// about the encoded order.
//
// Encode reports ErrOutOfUniverse (wrapped) for values outside the
// universe; Decode reports it for points outside [1, Size()].
type Universe[T any] interface {
	// Size returns N, the number of points in the universe.
	Size() int64
	// Encode maps a value to its point in [1, Size()].
	Encode(x T) (int64, error)
	// Decode inverts Encode.
	Decode(p int64) (T, error)
}

// int64Range is the identity-shifted universe over [lo, hi].
type int64Range struct {
	lo, hi int64
}

// NewInt64Universe returns the identity universe over [1, n]: values encode
// as themselves, so encoded views feed internal set systems over [1, n]
// directly.
func NewInt64Universe(n int64) (Universe[int64], error) {
	return NewInt64Range(1, n)
}

// NewInt64Range returns the universe of integers in [lo, hi], encoded by
// shifting to [1, hi-lo+1]. It reports ErrBadUniverse unless lo <= hi and
// the range has fewer than 2^63 points.
func NewInt64Range(lo, hi int64) (Universe[int64], error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: empty range [%d, %d]", ErrBadUniverse, lo, hi)
	}
	if size := uint64(hi) - uint64(lo) + 1; size == 0 || size > 1<<62 {
		return nil, fmt.Errorf("%w: range [%d, %d] too large", ErrBadUniverse, lo, hi)
	}
	return int64Range{lo: lo, hi: hi}, nil
}

func (u int64Range) Size() int64 { return u.hi - u.lo + 1 }

func (u int64Range) Encode(x int64) (int64, error) {
	if x < u.lo || x > u.hi {
		return 0, u.outside(x)
	}
	return x - u.lo + 1, nil
}

// EncodeBatch appends the points of xs to dst, as Encode would one by one:
// one pass checks the range, a second applies the shift. The batch is
// atomic: if any value is outside [lo, hi] it appends nothing and returns
// Encode's error for the first such value. The ingest paths of this package
// and of shard reach it through a structural interface, so other universes
// keep their per-element Encode.
//
//robust:hotpath
func (u int64Range) EncodeBatch(dst, xs []int64) ([]int64, error) {
	span := uint64(u.hi) - uint64(u.lo)
	for _, x := range xs {
		if uint64(x)-uint64(u.lo) > span {
			return dst, u.outside(x)
		}
	}
	n := len(dst)
	dst = append(dst, xs...)
	if shift := 1 - u.lo; shift != 0 {
		for i := n; i < len(dst); i++ {
			dst[i] += shift
		}
	}
	return dst, nil
}

// outside is Encode's error for x, formatted out of line so that the batch
// path does not format errors inline.
func (u int64Range) outside(x int64) error {
	return fmt.Errorf("%w: %d not in [%d, %d]", ErrOutOfUniverse, x, u.lo, u.hi)
}

func (u int64Range) Decode(p int64) (int64, error) {
	if p < 1 || p > u.Size() {
		return 0, fmt.Errorf("%w: point %d not in [1, %d]", ErrOutOfUniverse, p, u.Size())
	}
	return u.lo + p - 1, nil
}

// stringUniverse orders a fixed vocabulary lexicographically.
type stringUniverse struct {
	vocab []string // sorted, deduplicated
}

// NewStringUniverse returns the universe of the given vocabulary, ordered
// lexicographically (duplicates are removed). Every theorem in the paper is
// stated for an abstract ordered universe, so a robust sketch over strings
// is exactly as robust as one over integers; this universe is the proof by
// construction. It reports ErrBadUniverse for an empty vocabulary.
func NewStringUniverse(vocab ...string) (Universe[string], error) {
	if len(vocab) == 0 {
		return nil, fmt.Errorf("%w: empty vocabulary", ErrBadUniverse)
	}
	sorted := slices.Clone(vocab)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	return stringUniverse{vocab: sorted}, nil
}

func (u stringUniverse) Size() int64 { return int64(len(u.vocab)) }

func (u stringUniverse) Encode(x string) (int64, error) {
	i, ok := slices.BinarySearch(u.vocab, x)
	if !ok {
		return 0, fmt.Errorf("%w: %q not in vocabulary", ErrOutOfUniverse, x)
	}
	return int64(i) + 1, nil
}

func (u stringUniverse) Decode(p int64) (string, error) {
	if p < 1 || p > u.Size() {
		return "", fmt.Errorf("%w: point %d not in [1, %d]", ErrOutOfUniverse, p, u.Size())
	}
	return u.vocab[p-1], nil
}
