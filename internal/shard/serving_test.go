package shard

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/snapshot"
)

const servingUniverse = int64(1 << 14)

// servingStream returns a deterministic pseudo-random stream over the test
// universe.
func servingStream(n int, seed uint64) []int64 {
	r := rng.New(seed)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = 1 + r.Int63n(servingUniverse)
	}
	return xs
}

type servingSamplerCase struct {
	name string
	mk   func(int) game.Sampler
}

func servingSamplerCases(k int, p float64) []servingSamplerCase {
	return []servingSamplerCase{
		{"reservoir", func(int) game.Sampler { return sampler.NewReservoir[int64](k) }},
		{"reservoirL", func(int) game.Sampler { return sampler.NewReservoirL[int64](k) }},
		{"bernoulli", func(int) game.Sampler { return sampler.NewBernoulli[int64](p) }},
	}
}

// checkpointState is everything a checkpoint query can observe: the global
// verdict, the per-shard verdict table, the union sample, and per-shard
// substream lengths.
type checkpointState struct {
	Global      setsystem.Discrepancy
	PerShard    []setsystem.Discrepancy
	Sample      []int64
	ShardRounds []int
	Rounds      int
}

// TestServingDeterministicMatchesSerial is the differential proof of the
// deterministic pipeline mode: a stream striped across P producer lanes
// (lane p takes elements p, p+P, ...) must yield byte-identical samples AND
// verdict tables to serial OfferBatch of the original stream — at every
// checkpoint, for every sampler type, router, shard count and producer
// count.
func TestServingDeterministicMatchesSerial(t *testing.T) {
	const n = 4096
	checkpoints := []int{1024, 2048, 4096} // phase lengths divisible by every P below
	stream := servingStream(n, 99)
	sys := setsystem.NewPrefixes(servingUniverse)

	for _, sc := range servingSamplerCases(64, 0.02) {
		for _, router := range Routers() {
			for _, S := range []int{1, 3} {
				cfg := Config{Shards: S, Router: router, System: sys, NewSampler: sc.mk, Workers: 1}

				// Serial reference trajectory.
				serial := New(cfg, rng.New(7))
				var want []checkpointState
				prev := 0
				for _, cp := range checkpoints {
					serial.OfferBatch(stream[prev:cp])
					prev = cp
					want = append(want, observe(serial.Verdict(), serial))
				}

				for _, P := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/S=%d/P=%d", sc.name, router.Name(), S, P)
					eng := New(cfg, rng.New(7))
					srv, err := eng.Serve(ServeConfig{Producers: P, Deterministic: true, RingSize: 64, ChunkCap: 48})
					if err != nil {
						t.Fatalf("%s: Serve: %v", name, err)
					}
					var got []checkpointState
					prev = 0
					for _, cp := range checkpoints {
						offerStriped(t, srv, stream, prev, cp, P)
						prev = cp
						srv.Flush()
						got = append(got, observe(srv.Verdict(), servingView{srv, S}))
					}
					srv.Close()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: pipeline trajectory diverged from serial OfferBatch\n got: %+v\nwant: %+v", name, got, want)
					}
					// After Close the engine is serially usable and must
					// hold the identical final state.
					if fin := observe(eng.Verdict(), eng); !reflect.DeepEqual(fin, want[len(want)-1]) {
						t.Fatalf("%s: post-Close engine state diverged\n got: %+v\nwant: %+v", name, fin, want[len(want)-1])
					}
				}
			}
		}
	}
}

// offerStriped offers stream[from:to) across the serving's P lanes with
// lane = globalIndex mod P, one goroutine per lane.
func offerStriped(t *testing.T, srv *Serving, stream []int64, from, to, P int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(P)
	for lane := 0; lane < P; lane++ {
		go func(lane int) {
			defer wg.Done()
			pr := srv.Producer(lane)
			for g := from; g < to; g++ {
				if g%P != lane {
					continue
				}
				if err := pr.Offer(stream[g]); err != nil {
					t.Errorf("lane %d: Offer: %v", lane, err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
}

// engineView unifies the serial engine and the serving handle for
// trajectory capture.
type engineView interface {
	ShardVerdict(i int) setsystem.Discrepancy
	Sample() []int64
	ShardRounds(i int) int
	Rounds() int
}

type servingView struct {
	s *Serving
	S int
}

func (v servingView) ShardVerdict(i int) setsystem.Discrepancy { return v.s.ShardVerdict(i) }
func (v servingView) Sample() []int64                          { return v.s.Sample() }
func (v servingView) ShardRounds(i int) int                    { return v.s.ShardRounds(i) }
func (v servingView) Rounds() int                              { return v.s.Rounds() }

func numShards(v engineView) int {
	if e, ok := v.(*Engine); ok {
		return e.NumShards()
	}
	return v.(servingView).S
}

func observe(global setsystem.Discrepancy, v engineView) checkpointState {
	st := checkpointState{Global: global, Sample: v.Sample(), Rounds: v.Rounds()}
	for i := 0; i < numShards(v); i++ {
		st.PerShard = append(st.PerShard, v.ShardVerdict(i))
		st.ShardRounds = append(st.ShardRounds, v.ShardRounds(i))
	}
	return st
}

// TestServingLiveStress runs N producer goroutines against M live query
// goroutines in live mode and checks conservation (no element lost or
// duplicated: round counters reconcile after Flush) and verdict validity
// under load.
func TestServingLiveStress(t *testing.T) {
	const (
		P       = 4
		perLane = 10000
		S       = 3
		queries = 2
	)
	sys := setsystem.NewPrefixes(servingUniverse)
	for _, router := range Routers() {
		eng := New(Config{
			Shards: S, Router: router, System: sys,
			NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](128) },
			Workers:    1,
		}, rng.New(11))
		srv, err := eng.Serve(ServeConfig{Producers: P, RingSize: 256})
		if err != nil {
			t.Fatalf("%s: Serve: %v", router.Name(), err)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		queryRNG := make([]*rng.RNG, queries)
		for q := 0; q < queries; q++ {
			queryRNG[q] = rng.New(uint64(100 + q))
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					d := srv.Verdict()
					if d.Err < 0 || d.Err > 1 {
						t.Errorf("live Verdict out of range: %v", d)
						return
					}
					for i := 0; i < S; i++ {
						sd := srv.ShardVerdict(i)
						if sd.Err < 0 || sd.Err > 1 {
							t.Errorf("live ShardVerdict(%d) out of range: %v", i, sd)
							return
						}
					}
					if gs := srv.GlobalSample(32, queryRNG[q]); len(gs) > 0 {
						for _, x := range gs {
							if x < 1 || x > servingUniverse {
								t.Errorf("GlobalSample returned out-of-universe %d", x)
								return
							}
						}
					}
					_ = srv.Sample()
					_ = srv.SampleLen()
				}
			}(q)
		}

		var pwg sync.WaitGroup
		pwg.Add(P)
		for lane := 0; lane < P; lane++ {
			go func(lane int) {
				defer pwg.Done()
				pr := srv.Producer(lane)
				xs := servingStream(perLane, uint64(1000+lane))
				for len(xs) > 0 {
					m := min(37, len(xs))
					if err := pr.OfferBatch(xs[:m]); err != nil {
						t.Errorf("lane %d: %v", lane, err)
						return
					}
					xs = xs[m:]
				}
			}(lane)
		}
		pwg.Wait()
		ep := srv.Flush()
		close(stop)
		wg.Wait()

		if ep.Applied != P*perLane {
			t.Errorf("%s: flush applied %d, want %d", router.Name(), ep.Applied, P*perLane)
		}
		totalShardRounds := 0
		for i := 0; i < S; i++ {
			totalShardRounds += srv.ShardRounds(i)
		}
		if totalShardRounds != P*perLane {
			t.Errorf("%s: shard rounds sum to %d, want %d (lost or duplicated elements)",
				router.Name(), totalShardRounds, P*perLane)
		}
		if got := srv.Rounds(); got != P*perLane {
			t.Errorf("%s: Rounds = %d, want %d", router.Name(), got, P*perLane)
		}
		srv.Close()
		if eng.Rounds() != P*perLane {
			t.Errorf("%s: post-Close engine Rounds = %d, want %d", router.Name(), eng.Rounds(), P*perLane)
		}
		// The drained engine must answer serial queries and keep ingesting.
		d := eng.Verdict()
		if d.Err < 0 || d.Err > 1 {
			t.Errorf("%s: post-Close Verdict out of range: %v", router.Name(), d)
		}
		eng.OfferBatch(servingStream(100, 5))
		if eng.Rounds() != P*perLane+100 {
			t.Errorf("%s: post-Close serial ingest broken: rounds %d", router.Name(), eng.Rounds())
		}
	}
}

// TestServingSnapshotRoundTrip checkpoints a quiesced deterministic serving
// session and proves the three snapshot laws still hold through the
// concurrent path: a restored engine continues bit-identically to the one
// that kept running.
func TestServingSnapshotRoundTrip(t *testing.T) {
	sys := setsystem.NewPrefixes(servingUniverse)
	cfg := Config{
		Shards: 3, Router: Uniform{}, System: sys,
		NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](32) },
		Workers:    1,
	}
	stream := servingStream(3000, 21)

	eng := New(cfg, rng.New(5))
	srv, err := eng.Serve(ServeConfig{Producers: 2, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	offerStriped(t, srv, stream, 0, 2000, 2)
	srv.Flush()
	state, _, err := srv.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The running session continues with the rest of the stream.
	offerStriped(t, srv, stream, 2000, 3000, 2)
	srv.Close()

	// A restored twin replays the same tail serially; deterministic mode
	// striping reconstructs the identical global order, so the states must
	// match bit for bit.
	twin := New(cfg, rng.New(999)) // seed is irrelevant; LoadState overwrites every stream
	if err := LoadState(snapshot.NewReader(state), twin); err != nil {
		t.Fatal(err)
	}
	twin.OfferBatch(stream[2000:])
	if got, want := twin.Verdict(), eng.Verdict(); got != want {
		t.Fatalf("restored engine verdict %v, original %v", got, want)
	}
	if got, want := twin.Sample(), eng.Sample(); !slices.Equal(got, want) {
		t.Fatalf("restored engine sample diverged")
	}
}

// TestMergeFromEngine checks the engine-level [CTW16] fan-in: after merging
// engine B into engine A, A's merged verdict must equal a one-shot
// MaxDiscrepancy of the concatenated streams against A's union sample, and
// the round accounting must cover both streams.
func TestMergeFromEngine(t *testing.T) {
	sys := setsystem.NewPrefixes(servingUniverse)
	mkRes := func(int) game.Sampler { return sampler.NewReservoir[int64](48) }
	mkBer := func(int) game.Sampler { return sampler.NewBernoulli[int64](0.05) }
	for _, tc := range []struct {
		name string
		mk   func(int) game.Sampler
	}{{"reservoir", mkRes}, {"bernoulli", mkBer}} {
		cfg := Config{Shards: 2, Router: HashByValue{}, System: sys, NewSampler: tc.mk, Workers: 1}
		a := New(cfg, rng.New(1))
		b := New(cfg, rng.New(2))
		sa := servingStream(2500, 31)
		sb := servingStream(1800, 32)
		a.OfferBatch(sa)
		b.OfferBatch(sb)
		if err := a.MergeFromEngine(b); err != nil {
			t.Fatalf("%s: MergeFromEngine: %v", tc.name, err)
		}
		if got, want := a.Rounds(), len(sa)+len(sb); got != want {
			t.Errorf("%s: merged rounds %d, want %d", tc.name, got, want)
		}
		union := append(append([]int64(nil), sa...), sb...)
		want := sys.MaxDiscrepancy(union, a.Sample())
		if got := a.Verdict(); got != want {
			t.Errorf("%s: merged verdict %v, want one-shot %v", tc.name, got, want)
		}
	}

	// Algorithm L cannot merge.
	cfgL := Config{Shards: 2, Router: HashByValue{}, System: sys,
		NewSampler: func(int) game.Sampler { return sampler.NewReservoirL[int64](16) }, Workers: 1}
	a := New(cfgL, rng.New(1))
	b := New(cfgL, rng.New(2))
	a.OfferBatch(servingStream(200, 41))
	b.OfferBatch(servingStream(200, 42))
	if err := a.MergeFromEngine(b); err == nil {
		t.Error("Algorithm L engines merged; want ErrMergeSampler")
	}

	// Mismatched shard structure.
	c := New(Config{Shards: 3, Router: HashByValue{}, System: sys, NewSampler: mkRes, Workers: 1}, rng.New(3))
	d := New(Config{Shards: 2, Router: HashByValue{}, System: sys, NewSampler: mkRes, Workers: 1}, rng.New(4))
	if err := c.MergeFromEngine(d); err == nil {
		t.Error("engines with different shard counts merged; want ErrMergeShape")
	}
}

// TestServingRejectsRecordedStreams pins the Serve precondition.
func TestServingRejectsRecordedStreams(t *testing.T) {
	sys := setsystem.NewPrefixes(servingUniverse)
	e := New(Config{
		Shards: 1, System: sys, RecordStreams: true,
		NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](8) },
	}, rng.New(1))
	if _, err := e.Serve(ServeConfig{}); err == nil {
		t.Fatal("Serve accepted a RecordStreams engine")
	}
}
