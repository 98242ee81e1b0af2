package sampler

import (
	"bytes"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/snapshot"
)

// cloneRNG returns a generator in exactly r's state.
func cloneRNG(r *rng.RNG) *rng.RNG {
	c := rng.New(0)
	c.SetState(r.State())
	return c
}

// feedInt64 offers n pseudo-random elements drawn from src to offer.
func feedInt64(n int, src *rng.RNG, offer func(x int64)) {
	for i := 0; i < n; i++ {
		offer(1 + src.Int63n(1000))
	}
}

// roundTrip checks the three snapshot laws for one sampler pair:
// snap(orig) == snap(restore(snap(orig))), and after identical further
// input from identically seeded RNGs the two samplers hold equal samples.
func roundTrip[S any](t *testing.T, name string, orig, fresh S,
	snap func(S) []byte, load func(*snapshot.Reader, S) error,
	offer func(S, int64, *rng.RNG), view func(S) []int64, rounds func(S) int) {
	t.Helper()

	seedRNG := rng.New(11)
	feedRNG := rng.New(7)
	feedInt64(500, seedRNG, func(x int64) { offer(orig, x, feedRNG) })

	s1 := snap(orig)
	if err := load(snapshot.NewReader(s1), fresh); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	s2 := snap(fresh)
	if !bytes.Equal(s1, s2) {
		t.Fatalf("%s: snapshot not bit-identical after restore", name)
	}
	if !slices.Equal(view(orig), view(fresh)) {
		t.Fatalf("%s: restored sample differs", name)
	}
	if rounds(orig) != rounds(fresh) {
		t.Fatalf("%s: restored rounds %d != %d", name, rounds(fresh), rounds(orig))
	}

	// Continuation: identical RNG states + identical input => identical
	// behaviour from the restore point on.
	contA := cloneRNG(feedRNG)
	contB := cloneRNG(feedRNG)
	moreA := rng.New(99)
	moreB := rng.New(99)
	feedInt64(500, moreA, func(x int64) { offer(orig, x, contA) })
	feedInt64(500, moreB, func(x int64) { offer(fresh, x, contB) })
	if !slices.Equal(view(orig), view(fresh)) {
		t.Fatalf("%s: continuation diverged after restore", name)
	}
}

func TestBernoulliSnapshotRoundTrip(t *testing.T) {
	roundTrip(t, "bernoulli",
		NewBernoulli[int64](0.2), NewBernoulli[int64](0.9),
		func(s *Bernoulli[int64]) []byte { return AppendBernoulliState(nil, s) },
		LoadBernoulliState,
		func(s *Bernoulli[int64], x int64, r *rng.RNG) { s.Offer(x, r) },
		func(s *Bernoulli[int64]) []int64 { return s.View() },
		func(s *Bernoulli[int64]) int { return s.Rounds() })
}

// TestBernoulliSnapshotBatchGapState proves the pending gap-skip counter
// survives a snapshot: a batch split across a snapshot boundary admits the
// same elements as an uninterrupted run.
func TestBernoulliSnapshotBatchGapState(t *testing.T) {
	mk := func() (*Bernoulli[int64], *rng.RNG) {
		return NewBernoulli[int64](0.05), rng.New(3)
	}
	stream := make([]int64, 4000)
	src := rng.New(5)
	for i := range stream {
		stream[i] = 1 + src.Int63n(1<<20)
	}

	a, ra := mk()
	a.OfferBatch(stream[:1500], ra)
	snap := AppendBernoulliState(nil, a)

	b, _ := mk()
	if err := LoadBernoulliState(snapshot.NewReader(snap), b); err != nil {
		t.Fatal(err)
	}
	rb := cloneRNG(ra)

	a.OfferBatch(stream[1500:], ra)
	b.OfferBatch(stream[1500:], rb)
	if !slices.Equal(a.View(), b.View()) {
		t.Fatal("gap-skip state lost across snapshot: batch continuation diverged")
	}
}

func TestReservoirSnapshotRoundTrip(t *testing.T) {
	roundTrip(t, "reservoir",
		NewReservoir[int64](32), NewReservoir[int64](5),
		func(s *Reservoir[int64]) []byte { return AppendReservoirState(nil, s) },
		LoadReservoirState,
		func(s *Reservoir[int64], x int64, r *rng.RNG) { s.Offer(x, r) },
		func(s *Reservoir[int64]) []int64 { return s.View() },
		func(s *Reservoir[int64]) int { return s.Rounds() })
}

func TestReservoirLSnapshotRoundTrip(t *testing.T) {
	roundTrip(t, "reservoirL",
		NewReservoirL[int64](32), NewReservoirL[int64](5),
		func(s *ReservoirL[int64]) []byte { return AppendReservoirLState(nil, s) },
		LoadReservoirLState,
		func(s *ReservoirL[int64], x int64, r *rng.RNG) { s.Offer(x, r) },
		func(s *ReservoirL[int64]) []int64 { return s.View() },
		func(s *ReservoirL[int64]) int { return s.Rounds() })
}

func TestWithReplacementSnapshotRoundTrip(t *testing.T) {
	roundTrip(t, "with-replacement",
		NewWithReplacement[int64](16), NewWithReplacement[int64](3),
		func(s *WithReplacement[int64]) []byte { return AppendWithReplacementState(nil, s) },
		LoadWithReplacementState,
		func(s *WithReplacement[int64], x int64, r *rng.RNG) { s.Offer(x, r) },
		func(s *WithReplacement[int64]) []int64 { return s.View() },
		func(s *WithReplacement[int64]) int { return s.Rounds() })
}

func TestWeightedSnapshotRoundTrip(t *testing.T) {
	w := NewWeightedReservoir[int64](16)
	fresh := NewWeightedReservoir[int64](2)
	feedRNG := rng.New(7)
	src := rng.New(11)
	for i := 0; i < 400; i++ {
		w.Offer(1+src.Int63n(1000), 0.5+src.Float64(), feedRNG)
	}
	s1 := AppendWeightedState(nil, w)
	if err := LoadWeightedState(snapshot.NewReader(s1), fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, AppendWeightedState(nil, fresh)) {
		t.Fatal("weighted snapshot not bit-identical after restore")
	}
	contA, contB := cloneRNG(feedRNG), cloneRNG(feedRNG)
	moreA, moreB := rng.New(99), rng.New(99)
	for i := 0; i < 400; i++ {
		xa, wa := 1+moreA.Int63n(1000), 0.5+moreA.Float64()
		xb, wb := 1+moreB.Int63n(1000), 0.5+moreB.Float64()
		w.Offer(xa, wa, contA)
		fresh.Offer(xb, wb, contB)
	}
	if !slices.Equal(w.View(), fresh.View()) {
		t.Fatal("weighted continuation diverged after restore")
	}
}

func TestLoadStateKindMismatch(t *testing.T) {
	res := NewReservoir[int64](4)
	r := rng.New(1)
	for i := int64(1); i <= 10; i++ {
		res.Offer(i, r)
	}
	buf, err := AppendState(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadState(snapshot.NewReader(buf), NewBernoulli[int64](0.5)); err == nil {
		t.Fatal("loading a reservoir snapshot into a Bernoulli sampler should fail")
	}
	// Correct type round-trips through the kind-tagged path too.
	back := NewReservoir[int64](9)
	if err := LoadState(snapshot.NewReader(buf), back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.View(), back.View()) {
		t.Fatal("kind-tagged round trip lost the sample")
	}
}

func TestLoadTruncatedSnapshot(t *testing.T) {
	res := NewReservoir[int64](8)
	r := rng.New(2)
	for i := int64(1); i <= 50; i++ {
		res.Offer(i, r)
	}
	full := AppendReservoirState(nil, res)
	for _, cut := range []int{0, 1, 8, len(full) - 1} {
		if err := LoadReservoirState(snapshot.NewReader(full[:cut]), NewReservoir[int64](8)); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

// TestWeightedMergeFrom verifies the A-Res merge law: the merged reservoir
// holds exactly the top-K keys of the union of both key sets.
func TestWeightedMergeFrom(t *testing.T) {
	r := rng.New(42)
	a := NewWeightedReservoir[int64](8)
	b := NewWeightedReservoir[int64](8)
	src := rng.New(17)
	for i := 0; i < 100; i++ {
		a.Offer(1+src.Int63n(500), 0.5+src.Float64(), r)
		b.Offer(500+src.Int63n(500), 0.5+src.Float64(), r)
	}
	// Union of (key, item) pairs before the merge.
	type pair struct {
		k float64
		v int64
	}
	var union []pair
	ka, ia := append([]float64(nil), a.keys...), append([]int64(nil), a.items...)
	for i := range ka {
		union = append(union, pair{ka[i], ia[i]})
	}
	for i := range b.keys {
		union = append(union, pair{b.keys[i], b.items[i]})
	}
	slices.SortFunc(union, func(p, q pair) int {
		switch {
		case p.k > q.k:
			return -1
		case p.k < q.k:
			return 1
		}
		return 0
	})
	wantRounds := a.Rounds() + b.Rounds()

	a.MergeFrom(b)
	if a.Rounds() != wantRounds {
		t.Fatalf("merged rounds %d, want %d", a.Rounds(), wantRounds)
	}
	if a.Len() != 8 {
		t.Fatalf("merged size %d, want 8", a.Len())
	}
	got := append([]float64(nil), a.keys...)
	slices.Sort(got)
	want := make([]float64, 0, 8)
	for _, p := range union[:8] {
		want = append(want, p.k)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("merged keys are not the top-K of the union:\ngot  %v\nwant %v", got, want)
	}
}

// TestLoadIntoStaleReceiver pins in-place decoding: a receiver whose item
// buffer is larger than the snapshot's sample and holds stale items loads
// to the same View, Rounds and re-snapshot bytes as a fresh receiver, and
// reloading it allocates nothing.
func TestLoadIntoStaleReceiver(t *testing.T) {
	src := rng.New(21)
	orig := &Reservoir[int64]{K: 16}
	feedInt64(300, src, func(x int64) { orig.Offer(x, src) })
	stale := &Reservoir[int64]{K: 64}
	feedInt64(1000, src, func(x int64) { stale.Offer(x, src) })
	data := AppendReservoirState(nil, orig)
	fresh := &Reservoir[int64]{}
	for _, v := range []*Reservoir[int64]{fresh, stale} {
		if err := LoadReservoirState(snapshot.NewReader(data), v); err != nil {
			t.Fatalf("LoadReservoirState: %v", err)
		}
	}
	if !slices.Equal(stale.View(), fresh.View()) || stale.Rounds() != fresh.Rounds() ||
		!bytes.Equal(AppendReservoirState(nil, stale), AppendReservoirState(nil, fresh)) {
		t.Fatal("reservoir loaded into a stale receiver differs from a fresh load")
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := LoadReservoirState(snapshot.NewReader(data), stale); err != nil {
			t.Fatalf("reload: %v", err)
		}
	}); avg != 0 {
		t.Fatalf("reservoir reload: %.1f allocs/op, want 0", avg)
	}

	bo := &Bernoulli[int64]{P: 0.1}
	feedInt64(300, src, func(x int64) { bo.Offer(x, src) })
	bstale := &Bernoulli[int64]{P: 0.9}
	feedInt64(1000, src, func(x int64) { bstale.Offer(x, src) })
	bdata := AppendBernoulliState(nil, bo)
	bfresh := &Bernoulli[int64]{}
	for _, b := range []*Bernoulli[int64]{bfresh, bstale} {
		if err := LoadBernoulliState(snapshot.NewReader(bdata), b); err != nil {
			t.Fatalf("LoadBernoulliState: %v", err)
		}
	}
	if !slices.Equal(bstale.View(), bfresh.View()) || bstale.Rounds() != bfresh.Rounds() ||
		!bytes.Equal(AppendBernoulliState(nil, bstale), AppendBernoulliState(nil, bfresh)) {
		t.Fatal("Bernoulli loaded into a stale receiver differs from a fresh load")
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := LoadBernoulliState(snapshot.NewReader(bdata), bstale); err != nil {
			t.Fatalf("reload: %v", err)
		}
	}); avg != 0 {
		t.Fatalf("Bernoulli reload: %.1f allocs/op, want 0", avg)
	}
}
