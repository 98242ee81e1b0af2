package game_test

import (
	"reflect"
	"testing"

	"robustsample/internal/adversary"
	. "robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// roundLoopSampler wraps a reservoir but hides OfferBatch, forcing the games
// onto the historical per-round loop for comparison against the batch path.
type roundLoopSampler struct {
	inner *sampler.Reservoir[int64]
}

func (p *roundLoopSampler) Offer(x int64, r *rng.RNG) bool      { return p.inner.Offer(x, r) }
func (p *roundLoopSampler) View() []int64                       { return p.inner.View() }
func (p *roundLoopSampler) Len() int                            { return p.inner.Len() }
func (p *roundLoopSampler) Reset()                              { p.inner.Reset() }
func (p *roundLoopSampler) LastDelta() (added, removed []int64) { return p.inner.LastDelta() }

// TestRunBatchedMatchesRoundLoop: for a reservoir (batch draws identical to
// per-element) against a static adversary, the batched fast path of Run must
// reproduce the round loop bit-for-bit — stream, sample, verdict, witness.
func TestRunBatchedMatchesRoundLoop(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 16)
	const n = 3000
	batched := Run(sampler.NewReservoir[int64](50), adversary.NewStaticUniform(1<<16), sys, n, 0.3, rng.New(42))
	plain := Run(&roundLoopSampler{inner: sampler.NewReservoir[int64](50)}, adversary.NewStaticUniform(1<<16), sys, n, 0.3, rng.New(42))
	if !reflect.DeepEqual(batched, plain) {
		t.Fatalf("batched Run differs from round loop:\n%+v\nvs\n%+v", batched, plain)
	}
}

// TestRunContinuousBatchedMatchesRoundLoop is the continuous analogue: the
// entire ContinuousResult (every checkpoint verdict, trajectory, violation
// bookkeeping) must agree between the span loop and the round loop.
func TestRunContinuousBatchedMatchesRoundLoop(t *testing.T) {
	const n = 2000
	for _, sys := range batchTestSystems() {
		cps := MustCheckpoints(1, n, 0.2)
		batched := RunContinuous(sampler.NewReservoir[int64](40), adversary.NewStaticUniform(1<<10), sys, n, 0.25, cps, rng.New(9))
		plain := RunContinuous(&roundLoopSampler{inner: sampler.NewReservoir[int64](40)}, adversary.NewStaticUniform(1<<10), sys, n, 0.25, cps, rng.New(9))
		if !reflect.DeepEqual(batched, plain) {
			t.Fatalf("%s: batched RunContinuous differs from round loop:\n%+v\nvs\n%+v",
				sys.Name(), batched, plain)
		}
	}
}

// TestRunContinuousChunkInvariance: every SpanChunkCap value must yield an
// identical ContinuousResult — for the reservoir family (identical draws)
// and for Bernoulli (gap-skipping state carries across chunks).
func TestRunContinuousChunkInvariance(t *testing.T) {
	defer func(old int) { SpanChunkCap = old }(SpanChunkCap)
	const n = 1500
	sys := setsystem.NewIntervals(1 << 12)
	cps := MustCheckpoints(1, n, 0.3)
	samplers := map[string]func() Sampler{
		"reservoir": func() Sampler { return sampler.NewReservoir[int64](30) },
		"bernoulli": func() Sampler { return sampler.NewBernoulli[int64](0.05) },
	}
	for name, mk := range samplers {
		var want ContinuousResult
		for i, chunk := range []int{8192, 1, 3, 97, 1500, 100000} {
			SpanChunkCap = chunk
			got := RunContinuous(mk(), adversary.NewStaticUniform(1<<12), sys, n, 0.25, cps, rng.New(5))
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SpanChunkCap=%d changed the outcome", name, chunk)
			}
		}
	}
}

// batchRecorder delegates to a reservoir's OfferBatch and snapshots the
// sample after every batch; with SpanChunkCap=1 batches are single rounds,
// so snapshots[i] is the sample after round i+1 and every checkpoint verdict
// of the batched span loop can be replayed through the one-shot engine.
type batchRecorder struct {
	inner     *sampler.Reservoir[int64]
	snapshots [][]int64
}

func (b *batchRecorder) Offer(x int64, r *rng.RNG) bool { panic("batch path expected") }
func (b *batchRecorder) OfferBatch(xs []int64, r *rng.RNG) int {
	n := b.inner.OfferBatch(xs, r)
	b.snapshots = append(b.snapshots, append([]int64(nil), b.inner.View()...))
	return n
}
func (b *batchRecorder) View() []int64                       { return b.inner.View() }
func (b *batchRecorder) Len() int                            { return b.inner.Len() }
func (b *batchRecorder) Reset()                              { b.inner.Reset(); b.snapshots = nil }
func (b *batchRecorder) LastDelta() (added, removed []int64) { return b.inner.LastDelta() }

// TestRunContinuousBatchedVerdictsMatchOneShot pins the batched span loop's
// checkpoint verdicts to the one-shot MaxDiscrepancy on the recorded
// prefixes, for all four set systems.
func TestRunContinuousBatchedVerdictsMatchOneShot(t *testing.T) {
	defer func(old int) { SpanChunkCap = old }(SpanChunkCap)
	SpanChunkCap = 1
	const n = 300
	for _, sys := range batchTestSystems() {
		rec := &batchRecorder{inner: sampler.NewReservoir[int64](15)}
		res := RunContinuous(rec, adversary.NewStaticUniform(1<<10), sys, n, 0.3, MustCheckpoints(1, n, 0.25), rng.New(31))
		if len(res.PrefixErrors) == 0 {
			t.Fatalf("%s: no checkpoints evaluated", sys.Name())
		}
		if len(rec.snapshots) != n {
			t.Fatalf("%s: %d snapshots, want %d (batch path not chunked per round?)", sys.Name(), len(rec.snapshots), n)
		}
		for _, pe := range res.PrefixErrors {
			want := sys.MaxDiscrepancy(res.Stream[:pe.Round], rec.snapshots[pe.Round-1])
			if pe.Err != want.Err {
				t.Fatalf("%s: round %d batched err %v != one-shot %v",
					sys.Name(), pe.Round, pe.Err, want.Err)
			}
		}
		if res.Discrepancy != sys.MaxDiscrepancy(res.Stream, res.Sample) {
			t.Fatalf("%s: final discrepancy mismatch", sys.Name())
		}
	}
}

// TestRunBatchedBernoulliVerdictExact: the Bernoulli fast path of Run draws
// a different (equally distributed) sample; its verdict must still be the
// exact discrepancy of the stream/sample pair it reports.
func TestRunBatchedBernoulliVerdictExact(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 12)
	res := Run(sampler.NewBernoulli[int64](0.1), adversary.NewStaticUniform(1<<12), sys, 2000, 0.3, rng.New(77))
	if len(res.Stream) != 2000 {
		t.Fatalf("stream length %d", len(res.Stream))
	}
	if res.Discrepancy != sys.MaxDiscrepancy(res.Stream, res.Sample) {
		t.Fatalf("verdict %v not the exact discrepancy", res.Discrepancy)
	}
	if res.OK != (res.Discrepancy.Err <= 0.3) {
		t.Fatal("OK flag inconsistent with verdict")
	}
}

func batchTestSystems() []setsystem.SetSystem {
	const u = 1 << 10
	return []setsystem.SetSystem{
		setsystem.NewPrefixes(u),
		setsystem.NewIntervals(u),
		setsystem.NewSingletons(u),
		setsystem.NewSuffixes(u),
	}
}

// BenchmarkAdaptiveGameEndToEnd measures one whole game: adversary, sampler
// and exact verdict.
func BenchmarkAdaptiveGameEndToEnd(b *testing.B) {
	sys := setsystem.NewPrefixes(1 << 20)
	root := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(sampler.NewReservoir[int64](200), adversary.NewStaticUniform(1<<20), sys, 5000, 0.2, root)
	}
}
