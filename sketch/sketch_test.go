package sketch_test

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/sketch"
)

func mustU[T any](u sketch.Universe[T], err error) sketch.Universe[T] {
	if err != nil {
		panic(err)
	}
	return u
}

func testStream(n int, universe int64, seed uint64) []int64 {
	r := rng.New(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + r.Int63n(universe)
	}
	return out
}

func TestConstructorValidation(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1000))
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"nil universe", errOnly(sketch.NewReservoir[int64](nil, 4)), sketch.ErrNilUniverse},
		{"k=0", errOnly(sketch.NewReservoir(u, 0)), sketch.ErrBadMemory},
		{"L k=0", errOnly(sketch.NewReservoirL(u, 0)), sketch.ErrBadMemory},
		{"weighted k=0", errOnly(sketch.NewWeighted(u, 0)), sketch.ErrBadMemory},
		{"p=-1", errOnly(sketch.NewBernoulli(u, -1)), sketch.ErrBadRate},
		{"p=2", errOnly(sketch.NewBernoulli(u, 2)), sketch.ErrBadRate},
		{"robust eps=0", errOnly(sketch.NewRobustReservoir(u, 0, 0.1, 100)), sketch.ErrBadParams},
		{"robust delta=1", errOnly(sketch.NewRobustReservoir(u, 0.1, 1, 100)), sketch.ErrBadParams},
		{"robust n=0", errOnly(sketch.NewRobustBernoulli(u, 0.1, 0.1, 0)), sketch.ErrBadParams},
		{"continuous eps=1", errOnly(sketch.NewContinuousRobustReservoir(u, 1, 0.1, 100)), sketch.ErrBadParams},
		{"empty range", errOnly(sketch.NewInt64Range(5, 4)), sketch.ErrBadUniverse},
		{"empty vocab", errOnlyS(sketch.NewStringUniverse()), sketch.ErrBadUniverse},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, c.err, c.want)
		}
	}
}

func errOnly[T any](_ T, err error) error  { return err }
func errOnlyS[T any](_ T, err error) error { return err }

func TestOfferOutOfUniverse(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(100))
	s, err := sketch.NewReservoir(u, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Offer(101); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("Offer(101) err = %v, want ErrOutOfUniverse", err)
	}
	if _, err := s.Offer(0); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("Offer(0) err = %v, want ErrOutOfUniverse", err)
	}
	// Atomic batches: one bad element rejects the whole batch.
	if _, err := s.OfferBatch([]int64{1, 2, 999}); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("OfferBatch err = %v, want ErrOutOfUniverse", err)
	}
	if s.Rounds() != 0 || s.Len() != 0 {
		t.Fatalf("failed offers ingested elements: rounds=%d len=%d", s.Rounds(), s.Len())
	}
	if n, err := s.OfferBatch([]int64{1, 2}); err != nil || n != 2 {
		t.Fatalf("valid batch = %d, %v", n, err)
	}
	if s.Rounds() != 2 || s.Len() != 2 {
		t.Fatalf("after valid batch: rounds=%d len=%d", s.Rounds(), s.Len())
	}
}

// TestFacadeDifferential proves the Sketch[T] facade and the internal
// Algorithm R sampler it wraps are the same machine: same seed, same
// stream => identical admissions, byte-identical samples AND byte-identical
// verdict tables (error and witness at every checkpoint), whether the
// sketch is fed one element at a time or in batches.
func TestFacadeDifferential(t *testing.T) {
	const (
		n        = 4000
		universe = int64(1 << 14)
		k        = 64
		seed     = 1234
	)
	stream := testStream(n, universe, 99)
	sys := setsystem.NewPrefixes(universe)
	checkpoints := []int{500, 1000, 2000, n}

	for _, batched := range []bool{false, true} {
		name := "Offer"
		if batched {
			name = "OfferBatch"
		}
		t.Run(name, func(t *testing.T) {
			// Internal path: external RNG, int64 sampler, per-element offers.
			ref := sampler.NewReservoir[int64](k)
			rr := rng.New(seed)

			// Public surface: identity universe, sketch-owned RNG with the
			// same seed.
			u := mustU(sketch.NewInt64Universe(universe))
			s, err := sketch.NewReservoir(u, k, sketch.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}

			from := 0
			for _, to := range checkpoints {
				rAdmitted, sAdmitted := 0, 0
				for i, x := range stream[from:to] {
					rAdmit := ref.Offer(x, rr)
					if rAdmit {
						rAdmitted++
					}
					if batched {
						continue
					}
					sAdmit, err := s.Offer(x)
					if err != nil {
						t.Fatal(err)
					}
					if rAdmit != sAdmit {
						t.Fatalf("round %d: admission bits differ (sampler %v, sketch %v)", from+i+1, rAdmit, sAdmit)
					}
					if sAdmit {
						sAdmitted++
					}
				}
				if batched {
					if sAdmitted, err = s.OfferBatch(stream[from:to]); err != nil {
						t.Fatal(err)
					}
				}
				if rAdmitted != sAdmitted {
					t.Fatalf("rounds %d-%d: sampler admitted %d, sketch %d", from+1, to, rAdmitted, sAdmitted)
				}
				if !slices.Equal(ref.View(), s.EncodedView()) {
					t.Fatalf("round %d: samples differ", to)
				}
				dr := sys.MaxDiscrepancy(stream[:to], ref.View())
				ds := sys.MaxDiscrepancy(stream[:to], s.EncodedView())
				if dr != ds {
					t.Fatalf("round %d: verdict tables differ: sampler %v, sketch %v", to, dr, ds)
				}
				from = to
			}
		})
	}
}

func roundTripSketch(t *testing.T, name string, mk func() sketch.Sketch[int64]) {
	t.Helper()
	orig := mk()
	stream := testStream(2000, 1000, 7)
	if _, err := orig.OfferBatch(stream[:1000]); err != nil {
		t.Fatal(err)
	}
	s1, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot: %v", name, err)
	}
	restored := mk()
	if err := restored.Restore(s1); err != nil {
		t.Fatalf("%s: restore: %v", name, err)
	}
	s2, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("%s: snapshot not bit-identical after restore", name)
	}
	if !slices.Equal(orig.View(), restored.View()) {
		t.Fatalf("%s: restored sample differs", name)
	}
	// Continuation: the RNG state travels with the snapshot, so both
	// sketches draw identical randomness from here on.
	for _, x := range stream[1000:] {
		a, err1 := orig.Offer(x)
		b, err2 := restored.Offer(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("%s: continuation admission diverged", name)
		}
	}
	if !slices.Equal(orig.View(), restored.View()) {
		t.Fatalf("%s: continuation samples diverged", name)
	}

	// Restoring into a differently configured sketch adopts the
	// snapshot's configuration.
	if err := restored.Restore(s1); err != nil {
		t.Fatalf("%s: re-restore: %v", name, err)
	}
}

func TestSnapshotRoundTripAllSketches(t *testing.T) {
	u, err := sketch.NewInt64Universe(1000)
	if err != nil {
		t.Fatal(err)
	}
	mkOpts := []sketch.Option{sketch.WithSeed(5)}
	cases := []struct {
		name string
		mk   func() sketch.Sketch[int64]
	}{
		{"reservoir", func() sketch.Sketch[int64] {
			s, err := sketch.NewReservoir(u, 32, mkOpts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"reservoirL", func() sketch.Sketch[int64] {
			s, err := sketch.NewReservoirL(u, 32, mkOpts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"bernoulli", func() sketch.Sketch[int64] {
			s, err := sketch.NewBernoulli(u, 0.15, mkOpts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"weighted", func() sketch.Sketch[int64] {
			s, err := sketch.NewWeighted(u, 32, mkOpts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { roundTripSketch(t, c.name, c.mk) })
	}
}

func TestSnapshotKindAndUniverseMismatch(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1000))
	res, _ := sketch.NewReservoir(u, 8)
	res.Offer(5)
	snap, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := sketch.FrameKind(snap); err != nil || kind == 0 {
		t.Fatalf("FrameKind = %d, %v", kind, err)
	}
	// Wrong sketch type.
	lres, _ := sketch.NewReservoirL(u, 8)
	if err := lres.Restore(snap); !errors.Is(err, sketch.ErrBadSnapshot) {
		t.Fatalf("cross-type restore err = %v, want ErrBadSnapshot", err)
	}
	// Wrong universe size.
	u2 := mustU(sketch.NewInt64Universe(999))
	res2, _ := sketch.NewReservoir(u2, 8)
	if err := res2.Restore(snap); !errors.Is(err, sketch.ErrBadSnapshot) {
		t.Fatalf("cross-universe restore err = %v, want ErrBadSnapshot", err)
	}
	// Corrupt header and truncations.
	bad := slices.Clone(snap)
	bad[0] ^= 0xFF
	if err := res.Restore(bad); !errors.Is(err, sketch.ErrBadSnapshot) {
		t.Fatalf("bad magic err = %v, want ErrBadSnapshot", err)
	}
	for _, cut := range []int{0, 5, len(snap) - 1} {
		if err := res.Restore(snap[:cut]); !errors.Is(err, sketch.ErrBadSnapshot) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}
}

// TestRestoreRejectsOutOfUniverseSample pins the fuzz-found hardening:
// a snapshot whose counters decode cleanly but whose sample holds a point
// outside [1, |U|] must fail Restore with ErrBadSnapshot instead of
// deferring the corruption to a decode panic in View.
func TestRestoreRejectsOutOfUniverseSample(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1000))
	res, _ := sketch.NewReservoir(u, 8)
	// A distinctive point so its little-endian encoding appears exactly
	// once in the snapshot bytes (counters here are all small: k=8,
	// rounds=1, len=1).
	const point = int64(777)
	if _, err := res.Offer(point); err != nil {
		t.Fatal(err)
	}
	snap, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var want, evil [8]byte
	for i := range want {
		want[i] = byte(uint64(point) >> (8 * i))
		evil[i] = byte(uint64(5000) >> (8 * i)) // outside [1, 1000]
	}
	at := bytes.Index(snap, want[:])
	if at < 0 || bytes.Index(snap[at+1:], want[:]) >= 0 {
		t.Fatalf("sample point encoding not unique in snapshot")
	}
	bad := slices.Clone(snap)
	copy(bad[at:], evil[:])
	if err := res.Restore(bad); !errors.Is(err, sketch.ErrBadSnapshot) {
		t.Fatalf("out-of-universe sample restore err = %v, want ErrBadSnapshot", err)
	}
	// The untampered snapshot still restores, and View stays panic-free.
	if err := res.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := res.View(); len(got) != 1 || got[0] != point {
		t.Fatalf("View after restore = %v, want [%d]", got, point)
	}
}

func TestReservoirMergeFrom(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1 << 12))
	a, _ := sketch.NewReservoir(u, 32, sketch.WithSeed(1))
	b, _ := sketch.NewReservoir(u, 32, sketch.WithSeed(2))
	streamA := testStream(1500, 1<<12, 3)
	streamB := testStream(900, 1<<12, 4)
	a.OfferBatch(streamA)
	b.OfferBatch(streamB)

	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Rounds() != 2400 {
		t.Fatalf("merged rounds %d, want 2400", a.Rounds())
	}
	if a.Len() != 32 {
		t.Fatalf("merged size %d, want 32", a.Len())
	}
	// Every merged element came from one of the two streams.
	all := map[int64]bool{}
	for _, x := range streamA {
		all[x] = true
	}
	for _, x := range streamB {
		all[x] = true
	}
	for _, x := range a.View() {
		if !all[x] {
			t.Fatalf("merged sample holds foreign element %d", x)
		}
	}
	// The merged sketch remains offerable.
	if _, err := a.Offer(1); err != nil {
		t.Fatal(err)
	}

	// Incompatibilities.
	bern, _ := sketch.NewBernoulli(u, 0.5)
	if err := a.MergeFrom(bern); !errors.Is(err, sketch.ErrIncompatible) {
		t.Fatalf("cross-type merge err = %v, want ErrIncompatible", err)
	}
	u2 := mustU(sketch.NewInt64Universe(7))
	c, _ := sketch.NewReservoir(u2, 4)
	if err := a.MergeFrom(c); !errors.Is(err, sketch.ErrIncompatible) {
		t.Fatalf("cross-universe merge err = %v, want ErrIncompatible", err)
	}
}

// TestReservoirMergeInsufficientSample: merging from a donor whose small
// capacity cannot supply min(K, combined rounds) elements must fail —
// otherwise the merged reservoir would sit under-full against an over-full
// round count and admit the next offers with probability 1.
func TestReservoirMergeInsufficientSample(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1 << 20))
	big, _ := sketch.NewReservoir(u, 100, sketch.WithSeed(1))
	small, _ := sketch.NewReservoir(u, 10, sketch.WithSeed(2))
	for x := int64(1); x <= 50; x++ {
		big.Offer(x)
	}
	for x := int64(1); x <= 100000; x++ {
		small.Offer(x)
	}
	if err := big.MergeFrom(small); !errors.Is(err, sketch.ErrIncompatible) {
		t.Fatalf("under-supplied merge err = %v, want ErrIncompatible", err)
	}
	// Failed merge leaves the receiver untouched and fully usable.
	if big.Rounds() != 50 || big.Len() != 50 {
		t.Fatalf("failed merge mutated receiver: rounds=%d len=%d", big.Rounds(), big.Len())
	}
	// A donor with adequate capacity merges fine even mid-fill.
	ok, _ := sketch.NewReservoir(u, 100, sketch.WithSeed(3))
	for x := int64(1); x <= 100000; x++ {
		ok.Offer(x)
	}
	if err := big.MergeFrom(ok); err != nil {
		t.Fatal(err)
	}
	if big.Len() != 100 || big.Rounds() != 100050 {
		t.Fatalf("merged state: len=%d rounds=%d", big.Len(), big.Rounds())
	}
}

// TestWeightedMergeSmallDonorRejected: a donor with smaller capacity may
// have evicted elements that belong in the merged top-K, so the merge must
// refuse instead of silently biasing the sample.
func TestWeightedMergeSmallDonorRejected(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1000))
	s, _ := sketch.NewWeighted(u, 100, sketch.WithSeed(1))
	small, _ := sketch.NewWeighted(u, 10, sketch.WithSeed(2))
	for i := int64(1); i <= 500; i++ {
		s.Offer(1 + i%1000)
		small.Offer(1 + i%1000)
	}
	if err := s.MergeFrom(small); !errors.Is(err, sketch.ErrIncompatible) {
		t.Fatalf("small-donor merge err = %v, want ErrIncompatible", err)
	}
	// The asymmetric direction is sound: a big donor into a small receiver.
	if err := small.MergeFrom(s); err != nil {
		t.Fatal(err)
	}
	if small.Rounds() != 1000 {
		t.Fatalf("merged rounds %d, want 1000", small.Rounds())
	}
}

func TestBernoulliMergeFromIsUnion(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1 << 12))
	a, _ := sketch.NewBernoulli(u, 0.2, sketch.WithSeed(1))
	b, _ := sketch.NewBernoulli(u, 0.2, sketch.WithSeed(2))
	a.OfferBatch(testStream(800, 1<<12, 5))
	b.OfferBatch(testStream(700, 1<<12, 6))
	want := append(a.View(), b.View()...)
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.View(), want) {
		t.Fatal("Bernoulli merge is not the concatenated union")
	}
	if a.Rounds() != 1500 {
		t.Fatalf("merged rounds %d, want 1500", a.Rounds())
	}
	// Different rates cannot merge.
	c, _ := sketch.NewBernoulli(u, 0.3)
	if err := a.MergeFrom(c); !errors.Is(err, sketch.ErrIncompatible) {
		t.Fatalf("rate mismatch err = %v, want ErrIncompatible", err)
	}
}

func TestReservoirLMergeUnsupported(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(100))
	a, _ := sketch.NewReservoirL(u, 8)
	b, _ := sketch.NewReservoirL(u, 8)
	if err := a.MergeFrom(b); !errors.Is(err, sketch.ErrUnsupportedMerge) {
		t.Fatalf("err = %v, want ErrUnsupportedMerge", err)
	}
}

func TestQueryAndReset(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(100))
	s, err := sketch.NewReservoir(u, 100, sketch.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(1, 50); !errors.Is(err, sketch.ErrEmpty) {
		t.Fatalf("empty query err = %v, want ErrEmpty", err)
	}
	for i := int64(1); i <= 100; i++ {
		s.Offer(i)
	}
	d, err := s.Query(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.5 {
		t.Fatalf("Query(1,50) = %v, want 0.5 (k >= n keeps everything)", d)
	}
	if _, err := s.Query(50, 1); !errors.Is(err, sketch.ErrBadRange) {
		t.Fatalf("inverted range err = %v, want ErrBadRange", err)
	}

	// Reset reseeds: a replay is bit-identical.
	first := slices.Clone(s.EncodedView())
	s.Reset()
	if s.Len() != 0 || s.Rounds() != 0 {
		t.Fatal("Reset did not clear")
	}
	for i := int64(1); i <= 100; i++ {
		s.Offer(i)
	}
	if !slices.Equal(first, s.EncodedView()) {
		t.Fatal("replay after Reset not bit-identical")
	}
}

func TestStringUniverseSketch(t *testing.T) {
	u, err := sketch.NewStringUniverse("ant", "bee", "cat", "dog", "eel", "fox")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sketch.NewReservoir(u, 100, sketch.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"cat", "dog", "ant", "cat", "eel", "cat", "bee", "dog"}
	if n, err := s.OfferBatch(words); err != nil || n != len(words) {
		t.Fatalf("OfferBatch = %d, %v", n, err)
	}
	if _, err := s.Offer("zebra"); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("out-of-vocabulary err = %v, want ErrOutOfUniverse", err)
	}
	// k >= n: the sample is the stream, so densities are exact.
	d, err := s.Query("cat", "cat")
	if err != nil {
		t.Fatal(err)
	}
	if d != 3.0/8 {
		t.Fatalf("Query(cat) = %v, want 0.375", d)
	}
	// Range in vocabulary order: [ant, cat] covers ant, bee, cat.
	d, err = s.Query("ant", "cat")
	if err != nil {
		t.Fatal(err)
	}
	if d != 5.0/8 {
		t.Fatalf("Query(ant..cat) = %v, want 0.625", d)
	}
	// Snapshot round-trips decode back to strings.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := sketch.NewReservoir(u, 1)
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := s2.View()
	slices.Sort(got)
	want := slices.Clone(words)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("restored string sample = %v, want %v", got, want)
	}
}

// TestBatchChunkingInvariance: reservoir-family batch results must not
// depend on how the stream is sliced.
func TestBatchChunkingInvariance(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1 << 10))
	stream := testStream(3000, 1<<10, 12)
	whole, _ := sketch.NewReservoir(u, 24, sketch.WithSeed(9))
	whole.OfferBatch(stream)
	chunked, _ := sketch.NewReservoir(u, 24, sketch.WithSeed(9))
	for i := 0; i < len(stream); i += 17 {
		chunked.OfferBatch(stream[i:min(i+17, len(stream))])
	}
	if !slices.Equal(whole.EncodedView(), chunked.EncodedView()) {
		t.Fatal("reservoir batch results depend on chunking")
	}
}

func TestWeightedSketch(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1000))
	s, err := sketch.NewWeighted(u, 10, sketch.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	// Heavily weighted element should essentially always be present.
	if _, err := s.OfferWeighted(7, 1e9); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 500; i++ {
		if _, err := s.OfferWeighted(1+i%1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Contains(s.View(), int64(7)) {
		t.Fatal("heavily weighted element evicted")
	}
	// Merge: union of key sets.
	o, _ := sketch.NewWeighted(u, 10, sketch.WithSeed(5))
	for i := int64(1); i <= 100; i++ {
		o.Offer(i)
	}
	preRounds := s.Rounds() + o.Rounds()
	if err := s.MergeFrom(o); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != preRounds {
		t.Fatalf("merged rounds %d, want %d", s.Rounds(), preRounds)
	}
	if s.Len() != 10 {
		t.Fatalf("merged size %d, want 10", s.Len())
	}
}

// batchEncoder is the structural interface the batch offers look for.
type batchEncoder interface {
	EncodeBatch(dst, xs []int64) ([]int64, error)
}

// TestInt64BatchEncode pins the int64 range universes' batch encoding: its
// points equal per-element Encode (negative lo and the int64 extremes
// included), and a value outside the range anywhere in the batch appends
// nothing and returns Encode's error for the first such value.
func TestInt64BatchEncode(t *testing.T) {
	for _, c := range []struct{ lo, hi int64 }{
		{1, 100},
		{-50, 49},
		{math.MinInt64, math.MinInt64 + 99},
		{math.MaxInt64 - 99, math.MaxInt64},
	} {
		var u sketch.Universe[int64]
		if c.lo == 1 {
			u = mustU(sketch.NewInt64Universe(c.hi))
		} else {
			u = mustU(sketch.NewInt64Range(c.lo, c.hi))
		}
		be, ok := u.(batchEncoder)
		if !ok {
			t.Fatalf("[%d, %d]: universe has no batch encoding", c.lo, c.hi)
		}
		xs := make([]int64, 0, 100)
		for x := c.lo; ; x++ {
			xs = append(xs, x)
			if x == c.hi {
				break
			}
		}
		dst := []int64{-7}
		got, err := be.EncodeBatch(dst, xs)
		if err != nil {
			t.Fatalf("[%d, %d]: %v", c.lo, c.hi, err)
		}
		for i, x := range xs {
			if p, err := u.Encode(x); err != nil || got[1+i] != p {
				t.Fatalf("[%d, %d]: batch point %d of %d, Encode gives %d (%v)", c.lo, c.hi, got[1+i], x, p, err)
			}
		}
		if got[0] != -7 {
			t.Fatal("EncodeBatch overwrote dst's prefix")
		}
		for _, bad := range []int64{c.lo - 1, c.hi + 1} {
			if bad == c.hi+1 && c.hi == math.MaxInt64 || bad == c.lo-1 && c.lo == math.MinInt64 {
				continue // no value beyond this end
			}
			_, want := u.Encode(bad)
			for _, at := range []int{0, len(xs) / 2, len(xs)} {
				batch := slices.Insert(slices.Clone(xs), at, bad)
				batch = append(batch, bad-1, bad+1) // later bad values must not be the one reported
				got, err := be.EncodeBatch(dst, batch)
				if !errors.Is(err, sketch.ErrOutOfUniverse) || err.Error() != want.Error() || len(got) != len(dst) {
					t.Fatalf("[%d, %d]: %d at %d gave %d points and %v, want none and %v", c.lo, c.hi, bad, at, len(got)-len(dst), err, want)
				}
			}
		}
	}
}

// countingUniverse is a Universe[int64] outside this package: batch offers
// must encode it element by element through Encode.
type countingUniverse struct{ encodes *int }

func (countingUniverse) Size() int64 { return 100 }

func (u countingUniverse) Encode(x int64) (int64, error) {
	*u.encodes++
	if x < 1 || x > 100 {
		return 0, sketch.ErrOutOfUniverse
	}
	return x, nil
}

func (countingUniverse) Decode(p int64) (int64, error) { return p, nil }

func TestOfferBatchCustomUniverseEncodesPerElement(t *testing.T) {
	encodes := 0
	s, err := sketch.NewReservoir[int64](countingUniverse{&encodes}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OfferBatch([]int64{1, 2, 3, 4, 5}); err != nil || encodes != 5 {
		t.Fatalf("OfferBatch: %d Encode calls (err %v), want 5", encodes, err)
	}
	encodes = 0
	if _, err := s.OfferBatch([]int64{1, 200, 3}); !errors.Is(err, sketch.ErrOutOfUniverse) || encodes != 2 {
		t.Fatalf("failing OfferBatch: %d Encode calls (err %v), want 2 and ErrOutOfUniverse", encodes, err)
	}
	if s.Rounds() != 5 {
		t.Fatalf("rounds %d after a failed batch, want 5", s.Rounds())
	}
}
