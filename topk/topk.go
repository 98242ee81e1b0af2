// Package topk is the public heavy-hitters application of Corollary 1.6:
// maintain an (eps/3)-approximation of the stream with respect to the
// singleton set system via a robustly sized reservoir, and report every
// element whose sample density reaches alpha - eps/3. The output then
// contains every element with true density >= alpha and nothing with
// density <= alpha - eps, with probability 1-delta — against any adaptive
// adversary.
//
// Like every sketch in this module, a Summary is generic over its element
// type through a sketch.Universe[T] codec, mergeable (per-site summaries
// fold into a summary of the union stream) and serializable
// (Snapshot/Restore round-trip bit-identically). It implements
// sketch.Sketch[T].
//
// The deterministic baselines (Misra-Gries, SpaceSaving) remain in
// internal/heavyhitter as experiment comparison points; their sentinel
// validation errors are re-exported here.
package topk

import (
	"fmt"
	"math"
	"slices"

	"robustsample/internal/core"
	"robustsample/internal/heavyhitter"
	"robustsample/internal/snapshot"
	"robustsample/sketch"
)

// Sentinel errors. The heavyhitter sentinels are re-exported so external
// callers can errors.Is against conditions raised on the internal paths the
// public surface wraps.
var (
	// ErrBadParams reports an invalid (eps, delta, n) target.
	ErrBadParams = sketch.ErrBadParams
	// ErrBadMemory reports a counter/sample memory below 1.
	ErrBadMemory = sketch.ErrBadMemory
	// ErrBadEps reports an error parameter outside (0, 1).
	ErrBadEps = heavyhitter.ErrBadEps
	// ErrBadThreshold reports a reporting threshold outside (0, 1].
	ErrBadThreshold = heavyhitter.ErrBadThreshold
	// ErrBadSnapshot reports a corrupt or mismatched snapshot.
	ErrBadSnapshot = sketch.ErrBadSnapshot
	// ErrIncompatible reports a merge between incompatible summaries.
	ErrIncompatible = sketch.ErrIncompatible
)

// Summary is the adversarially robust heavy-hitters summary of Corollary
// 1.6. It implements sketch.Sketch[T].
type Summary[T any] struct {
	res *sketch.Reservoir[T]
	u   sketch.Universe[T]
	eps float64
}

var _ sketch.Sketch[int64] = (*Summary[int64])(nil)

// New returns a summary for (alpha, eps) heavy hitters on streams of length
// up to n: a reservoir sized per Corollary 1.6 (an eps/3-approximation of
// the singleton system over u, k = ReservoirSize(eps/3, delta, ln|U|)).
func New[T any](u sketch.Universe[T], eps, delta float64, n int, opts ...sketch.Option) (*Summary[T], error) {
	if eps <= 0 || eps >= 1 {
		return nil, ErrBadEps
	}
	if !(delta > 0 && delta < 1) || n < 1 {
		return nil, fmt.Errorf("%w: delta=%v n=%d", ErrBadParams, delta, n)
	}
	if u == nil {
		return nil, sketch.ErrNilUniverse
	}
	k := core.HeavyHitterSize(eps, delta, n, u.Size())
	res, err := sketch.NewReservoir(u, k, opts...)
	if err != nil {
		return nil, err
	}
	return &Summary[T]{res: res, u: u, eps: eps}, nil
}

// NewWithMemory returns a summary over an explicitly sized reservoir of k
// elements with reporting error eps, for callers that size memory
// themselves.
func NewWithMemory[T any](u sketch.Universe[T], k int, eps float64, opts ...sketch.Option) (*Summary[T], error) {
	if eps <= 0 || eps >= 1 {
		return nil, ErrBadEps
	}
	res, err := sketch.NewReservoir(u, k, opts...)
	if err != nil {
		return nil, err
	}
	return &Summary[T]{res: res, u: u, eps: eps}, nil
}

// Eps returns the error parameter of the (alpha, eps) contract.
func (s *Summary[T]) Eps() float64 { return s.eps }

// K returns the underlying reservoir capacity.
func (s *Summary[T]) K() int { return s.res.K() }

// Offer implements sketch.Sketch.
func (s *Summary[T]) Offer(x T) (bool, error) { return s.res.Offer(x) }

// OfferBatch implements sketch.Sketch.
func (s *Summary[T]) OfferBatch(xs []T) (int, error) { return s.res.OfferBatch(xs) }

// View implements sketch.Sketch.
func (s *Summary[T]) View() []T { return s.res.View() }

// Len implements sketch.Sketch.
func (s *Summary[T]) Len() int { return s.res.Len() }

// Rounds implements sketch.Sketch.
func (s *Summary[T]) Rounds() int { return s.res.Rounds() }

// Count is Rounds under the name the summary literature uses.
func (s *Summary[T]) Count() int { return s.res.Rounds() }

// Query implements sketch.Sketch.
func (s *Summary[T]) Query(lo, hi T) (float64, error) { return s.res.Query(lo, hi) }

// Report returns every element whose sample density is at least
// alpha - eps/3, in ascending universe order — the Corollary 1.6 decision
// rule. It reports ErrBadThreshold unless 0 < alpha <= 1.
func (s *Summary[T]) Report(alpha float64) ([]T, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, ErrBadThreshold
	}
	sample := s.res.EncodedView()
	if len(sample) == 0 {
		return nil, nil
	}
	counts := make(map[int64]int, len(sample))
	for _, p := range sample {
		counts[p]++
	}
	cut := alpha - s.eps/3
	points := make([]int64, 0, len(counts))
	for p, c := range counts { //robust:nondet the passing points are sorted below; collection order is irrelevant

		if float64(c)/float64(len(sample)) >= cut {
			points = append(points, p)
		}
	}
	slices.Sort(points)
	out := make([]T, len(points))
	for i, p := range points {
		x, err := s.u.Decode(p)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// EstimateDensity returns the sample density of x — the summary's estimate
// of d_x(stream), accurate within eps/3 when robustly sized.
func (s *Summary[T]) EstimateDensity(x T) (float64, error) {
	return s.res.Query(x, x)
}

// MergeFrom implements sketch.Sketch: after the merge the receiver reports
// heavy hitters of the concatenation of both streams.
func (s *Summary[T]) MergeFrom(other sketch.Sketch[T]) error {
	o, ok := other.(*Summary[T])
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *topk.Summary", ErrIncompatible, other)
	}
	return s.res.MergeFrom(o.res)
}

// Reset implements sketch.Sketch.
func (s *Summary[T]) Reset() { s.res.Reset() }

// Snapshot implements sketch.Sketch: a FrameTopK frame wrapping eps and the
// underlying reservoir snapshot.
func (s *Summary[T]) Snapshot() ([]byte, error) {
	inner, err := s.res.Snapshot()
	if err != nil {
		return nil, err
	}
	buf := sketch.AppendFrameHeader(nil, sketch.FrameTopK)
	buf = snapshot.AppendFloat64(buf, s.eps)
	return append(buf, inner...), nil
}

// Restore implements sketch.Sketch.
func (s *Summary[T]) Restore(data []byte) error {
	r, err := sketch.ReadFrameHeader(data, sketch.FrameTopK)
	if err != nil {
		return err
	}
	eps := r.Float64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("%w: eps %v out of range", ErrBadSnapshot, eps)
	}
	if err := s.res.Restore(r.Rest()); err != nil {
		return err
	}
	s.eps = eps
	return nil
}
