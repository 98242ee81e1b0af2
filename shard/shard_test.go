package shard_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
	"robustsample/shard"
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

func TestValidation(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1 << 10))
	cases := []struct {
		name string
		opts []shard.Option
		want error
	}{
		{"no sampler", nil, shard.ErrNoSampler},
		{"two samplers", []shard.Option{shard.WithReservoir(4), shard.WithBernoulli(0.5)}, shard.ErrNoSampler},
		{"bad shards", []shard.Option{shard.WithShards(0), shard.WithReservoir(4)}, shard.ErrBadShards},
		{"bad memory", []shard.Option{shard.WithReservoir(0)}, shard.ErrBadMemory},
		{"bad rate", []shard.Option{shard.WithBernoulli(1.5)}, shard.ErrBadRate},
	}
	for _, c := range cases {
		if _, err := shard.New(u, c.opts...); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := shard.New[int64](nil, shard.WithReservoir(4)); !errors.Is(err, sketch.ErrNilUniverse) {
		t.Fatalf("nil universe err = %v, want ErrNilUniverse", err)
	}

	e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ShardVerdict(5); !errors.Is(err, shard.ErrBadShardIndex) {
		t.Fatalf("shard index err = %v, want ErrBadShardIndex", err)
	}
	if _, err := e.GlobalSample(0); !errors.Is(err, shard.ErrBadSample) {
		t.Fatalf("k=0 err = %v, want ErrBadSample", err)
	}
	if _, _, err := e.OfferRouted(0); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("OfferRouted(0) err = %v, want ErrOutOfUniverse", err)
	}
	if _, err := e.OfferBatch([]int64{1, 2, 2000}); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("OfferBatch err = %v, want ErrOutOfUniverse", err)
	}
	if e.Rounds() != 0 {
		t.Fatal("failed ingest routed elements")
	}
}

// TestVerdictMatchesOneShot: the public engine's merged verdict must be
// bit-identical to a one-shot discrepancy on the union stream and union
// sample, for every router.
func TestVerdictMatchesOneShot(t *testing.T) {
	const universe = int64(1 << 12)
	stream := testStream(5000, universe, 21)
	for _, router := range []shard.RouterKind{shard.RouterUniform, shard.RouterHash, shard.RouterRoundRobin} {
		t.Run(router.String(), func(t *testing.T) {
			u := mustU(sketch.NewInt64Universe(universe))
			e, err := shard.New(u,
				shard.WithShards(4),
				shard.WithRouter(router),
				shard.WithSystem(shard.Intervals),
				shard.WithReservoir(32),
				shard.WithSeed(77))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.OfferBatch(stream); err != nil {
				t.Fatal(err)
			}
			got, err := e.Verdict()
			if err != nil {
				t.Fatal(err)
			}
			sys := setsystem.NewIntervals(universe)
			want := sys.MaxDiscrepancy(stream, e.Sample())
			if got.Err != want.Err || !got.HasWitness || got.Lo != want.Lo || got.Hi != want.Hi {
				t.Fatalf("verdict %+v != one-shot %v", got, want)
			}
		})
	}
}

// TestWorkerAndChunkInvariance: worker-pool size and ingest slicing must
// not change any observable state.
func TestWorkerAndChunkInvariance(t *testing.T) {
	const universe = int64(1 << 12)
	stream := testStream(4000, universe, 33)
	u := mustU(sketch.NewInt64Universe(universe))
	build := func(workers int) *shard.Engine[int64] {
		e, err := shard.New(u,
			shard.WithShards(3),
			shard.WithReservoir(16),
			shard.WithWorkers(workers),
			shard.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build(1)
	if _, err := ref.OfferBatch(stream); err != nil {
		t.Fatal(err)
	}
	refVerdict, _ := ref.Verdict()

	parallel := build(4)
	for i := 0; i < len(stream); i += 113 {
		if _, err := parallel.OfferBatch(stream[i:min(i+113, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	gotVerdict, _ := parallel.Verdict()
	if gotVerdict != refVerdict {
		t.Fatalf("verdict depends on workers/chunking: %+v != %+v", gotVerdict, refVerdict)
	}
	if !slices.Equal(ref.Sample(), parallel.Sample()) {
		t.Fatal("union sample depends on workers/chunking")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	const universe = int64(1 << 12)
	u := mustU(sketch.NewInt64Universe(universe))
	build := func(seed uint64) *shard.Engine[int64] {
		e, err := shard.New(u,
			shard.WithShards(3),
			shard.WithRouter(shard.RouterUniform),
			shard.WithReservoir(16),
			shard.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	stream := testStream(3000, universe, 41)
	e := build(7)
	if _, err := e.OfferBatch(stream[:2000]); err != nil {
		t.Fatal(err)
	}
	before, _ := e.Verdict()

	s1, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Restore into an engine with a different seed: all state, including
	// every RNG stream, must come from the snapshot.
	f := build(12345)
	if err := f.Restore(s1); err != nil {
		t.Fatal(err)
	}
	s2, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("engine snapshot not bit-identical after restore")
	}
	after, _ := f.Verdict()
	if after != before {
		t.Fatalf("restored verdict %+v != %+v", after, before)
	}

	// Continuation is bit-identical: same traffic, same verdicts, same
	// coordinator samples.
	if _, err := e.OfferBatch(stream[2000:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OfferBatch(stream[2000:]); err != nil {
		t.Fatal(err)
	}
	ve, _ := e.Verdict()
	vf, _ := f.Verdict()
	if ve != vf {
		t.Fatalf("continuation verdicts diverged: %+v != %+v", vf, ve)
	}
	ge, err := e.GlobalSample(10)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := f.GlobalSample(10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ge, gf) {
		t.Fatal("coordinator GlobalSample diverged after restore")
	}

	// Mismatched configuration is rejected.
	other, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(s1); !errors.Is(err, shard.ErrBadSnapshot) {
		t.Fatalf("shard-count mismatch err = %v, want ErrBadSnapshot", err)
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	u := mustU(sketch.NewInt64Universe(1 << 10))
	e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(8), shard.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	stream := testStream(1000, 1<<10, 9)
	if _, err := e.OfferBatch(stream); err != nil {
		t.Fatal(err)
	}
	v1, _ := e.Verdict()
	sample1 := e.Sample()
	e.Reset()
	if e.Rounds() != 0 || e.SampleLen() != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, err := e.OfferBatch(stream); err != nil {
		t.Fatal(err)
	}
	v2, _ := e.Verdict()
	if v1 != v2 || !slices.Equal(sample1, e.Sample()) {
		t.Fatal("replay after Reset not bit-identical")
	}
}

func TestStringShardEngine(t *testing.T) {
	u, err := sketch.NewStringUniverse("apple", "banana", "cherry", "date", "elder")
	if err != nil {
		t.Fatal(err)
	}
	e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(100), shard.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"apple", "banana", "apple", "cherry", "apple", "date"}
	if _, err := e.OfferBatch(words); err != nil {
		t.Fatal(err)
	}
	v, err := e.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	// Capacity exceeds the stream: the union sample IS the stream, so the
	// discrepancy is exactly zero and no witness exists.
	if v.Err != 0 || v.HasWitness {
		t.Fatalf("full-capacity verdict = %+v, want zero", v)
	}
	got := e.Sample()
	slices.Sort(got)
	want := slices.Clone(words)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("union sample %v != stream %v", got, want)
	}
}

// countingUniverse is a Universe[int64] that counts its Encode calls: batch
// offers must encode it element by element.
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

// TestOfferBatchEncodeIsAtomic pins batch encoding on both ingest paths.
// Over the int64 range universes (negative lo included) a value outside the
// range first, in the middle or last fails the whole Engine.OfferBatch and
// Producer.OfferBatch with ErrOutOfUniverse, and Rounds does not move (for
// the session, after Flush). A custom universe is still encoded element by
// element through its Encode.
func TestOfferBatchEncodeIsAtomic(t *testing.T) {
	for _, u := range []sketch.Universe[int64]{
		mustU(sketch.NewInt64Universe(1000)),
		mustU(sketch.NewInt64Range(-500, 499)),
	} {
		lo, _ := u.Decode(1)
		hi, _ := u.Decode(u.Size())
		good := []int64{lo, lo + 1, (lo + hi) / 2, hi - 1, hi}
		e, err := shard.New(u, shard.WithShards(2), shard.WithReservoir(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.OfferBatch(good); err != nil {
			t.Fatal(err)
		}
		var bads [][]int64 // good with one value outside inserted first, in the middle or last
		for _, bad := range []int64{lo - 1, hi + 1} {
			for _, at := range []int{0, len(good) / 2, len(good)} {
				bads = append(bads, slices.Insert(slices.Clone(good), at, bad))
			}
		}
		for _, batch := range bads {
			if _, err := e.OfferBatch(batch); !errors.Is(err, sketch.ErrOutOfUniverse) || e.Rounds() != len(good) {
				t.Fatalf("[%d, %d] Engine.OfferBatch(%v): err %v, rounds %d, want ErrOutOfUniverse and %d",
					lo, hi, batch, err, e.Rounds(), len(good))
			}
		}

		srv, err := e.Serve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pr, err := srv.Producer(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range bads {
			err := pr.OfferBatch(batch)
			srv.Flush()
			if !errors.Is(err, sketch.ErrOutOfUniverse) || srv.Rounds() != len(good) {
				t.Fatalf("[%d, %d] Producer.OfferBatch(%v): err %v, rounds %d, want ErrOutOfUniverse and %d",
					lo, hi, batch, err, srv.Rounds(), len(good))
			}
		}
		if err := pr.OfferBatch(good); err != nil {
			t.Fatal(err)
		}
		srv.Flush()
		if srv.Rounds() != 2*len(good) {
			t.Fatalf("rounds %d after a good batch, want %d", srv.Rounds(), 2*len(good))
		}
		srv.Close()
	}

	encodes := 0
	e, err := shard.New[int64](countingUniverse{&encodes}, shard.WithShards(2), shard.WithReservoir(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OfferBatch([]int64{1, 2, 3}); err != nil || encodes != 3 {
		t.Fatalf("OfferBatch: %d Encode calls (err %v), want 3", encodes, err)
	}
	encodes = 0
	if _, err := e.OfferBatch([]int64{1, 200, 3}); !errors.Is(err, sketch.ErrOutOfUniverse) || encodes != 2 || e.Rounds() != 3 {
		t.Fatalf("failing OfferBatch: %d Encode calls, rounds %d (err %v), want 2, 3 and ErrOutOfUniverse", encodes, e.Rounds(), err)
	}
}
