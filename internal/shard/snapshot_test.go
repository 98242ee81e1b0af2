package shard

import (
	"bytes"
	"slices"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/snapshot"
)

func snapTestConfig(newSampler func(int) game.Sampler) Config {
	return Config{
		Shards:     4,
		Router:     Uniform{},
		System:     setsystem.NewIntervals(1 << 16),
		NewSampler: newSampler,
		Workers:    1,
	}
}

// TestEngineSnapshotRoundTrip checks the snapshot laws on the full engine:
// re-snapshot bit-identity, verdict bit-identity, and continuation
// bit-identity under further routed traffic.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	samplers := []struct {
		name string
		mk   func(int) game.Sampler
	}{
		{"reservoir", func(int) game.Sampler { return sampler.NewReservoir[int64](16) }},
		{"reservoirL", func(int) game.Sampler { return sampler.NewReservoirL[int64](16) }},
		{"bernoulli", func(int) game.Sampler { return sampler.NewBernoulli[int64](0.1) }},
	}
	for _, tc := range samplers {
		t.Run(tc.name, func(t *testing.T) {
			e := New(snapTestConfig(tc.mk), rng.New(5))
			src := rng.New(31)
			stream := make([]int64, 3000)
			for i := range stream {
				stream[i] = 1 + src.Int63n(1<<12)
			}
			e.OfferBatch(stream[:2000])
			before := e.Verdict()

			s1, err := AppendState(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			// Restore into an engine with the same config but a different
			// seed: every RNG stream must come from the snapshot.
			f := New(snapTestConfig(tc.mk), rng.New(999))
			if err := LoadState(snapshot.NewReader(s1), f); err != nil {
				t.Fatal(err)
			}
			s2, err := AppendState(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatal("engine snapshot not bit-identical after restore")
			}
			if got := f.Verdict(); got != before {
				t.Fatalf("restored verdict %v != original %v", got, before)
			}
			if !slices.Equal(e.Sample(), f.Sample()) {
				t.Fatal("restored union sample differs")
			}

			// Continuation: same traffic through both engines (mixing
			// OfferBatch and the adaptive Offer path) stays bit-identical.
			for _, x := range stream[2000:2100] {
				se, ae := e.Offer(x)
				sf, af := f.Offer(x)
				if se != sf || ae != af {
					t.Fatal("per-element continuation diverged after restore")
				}
			}
			e.OfferBatch(stream[2100:])
			f.OfferBatch(stream[2100:])
			if got, want := f.Verdict(), e.Verdict(); got != want {
				t.Fatalf("continuation verdict %v != %v", got, want)
			}
			if !slices.Equal(e.Sample(), f.Sample()) {
				t.Fatal("continuation samples diverged")
			}
		})
	}
}

func TestEngineSnapshotStructuralMismatch(t *testing.T) {
	e := New(snapTestConfig(func(int) game.Sampler { return sampler.NewReservoir[int64](8) }), rng.New(1))
	e.OfferBatch([]int64{1, 2, 3, 4, 5})
	snap, err := AppendState(nil, e)
	if err != nil {
		t.Fatal(err)
	}

	// Different shard count.
	cfg := snapTestConfig(func(int) game.Sampler { return sampler.NewReservoir[int64](8) })
	cfg.Shards = 2
	if err := LoadState(snapshot.NewReader(snap), New(cfg, rng.New(1))); err == nil {
		t.Fatal("shard-count mismatch not detected")
	}
	// Different sampler type.
	other := New(snapTestConfig(func(int) game.Sampler { return sampler.NewBernoulli[int64](0.5) }), rng.New(1))
	if err := LoadState(snapshot.NewReader(snap), other); err == nil {
		t.Fatal("sampler-type mismatch not detected")
	}
	// Different set system.
	cfg2 := snapTestConfig(func(int) game.Sampler { return sampler.NewReservoir[int64](8) })
	cfg2.System = setsystem.NewPrefixes(1 << 16)
	if err := LoadState(snapshot.NewReader(snap), New(cfg2, rng.New(1))); err == nil {
		t.Fatal("set-system mismatch not detected")
	}
}

func TestEngineSnapshotRecordStreamsUnsupported(t *testing.T) {
	cfg := snapTestConfig(func(int) game.Sampler { return sampler.NewReservoir[int64](8) })
	cfg.RecordStreams = true
	e := New(cfg, rng.New(1))
	if _, err := AppendState(nil, e); err == nil {
		t.Fatal("RecordStreams engines must refuse to snapshot")
	}
}
