package shard

import (
	"bytes"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/snapshot"
)

func fuzzEngine() *Engine {
	// Small universe and sample so each fuzz exec (two restores, two
	// ingests, two verdicts) stays cheap enough for real throughput.
	e := New(Config{
		Shards:     3,
		Router:     Uniform{},
		System:     setsystem.NewIntervals(1 << 8),
		NewSampler: func(int) game.Sampler { return sampler.NewReservoir[int64](8) },
		Workers:    1,
	}, rng.New(5))
	e.StartGame(rng.New(5))
	return e
}

// FuzzEngineSnapshotRestore fuzzes LoadState with arbitrary bytes — seeded
// with valid, truncated and bit-flipped engine snapshots — and checks the
// codec laws on every accepted input: nothing panics, re-snapshot is
// bit-identical, and two restores of the same bytes evolve identically
// under further routed traffic. This is the PR 8 fuzz-crasher class
// (malformed frames reaching state construction) kept under standing fuzz
// pressure at the engine layer.
func FuzzEngineSnapshotRestore(f *testing.F) {
	seed := fuzzEngine()
	src := rng.New(31)
	stream := make([]int64, 600)
	for i := range stream {
		stream[i] = 1 + src.Int63n(1<<8)
	}
	seed.OfferBatch(stream)
	valid, err := AppendState(nil, seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	mut := bytes.Clone(valid)
	mut[len(mut)/3] ^= 0x41 // corrupted
	f.Add(mut)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		e := fuzzEngine()
		if err := LoadState(snapshot.NewReader(data), e); err != nil {
			return // rejected: fine, as long as nothing panicked
		}

		// Law 1: re-snapshot bit-identity.
		s1, err := AppendState(nil, e)
		if err != nil {
			t.Fatalf("AppendState after accepted restore: %v", err)
		}
		g := fuzzEngine()
		if err := LoadState(snapshot.NewReader(s1), g); err != nil {
			t.Fatalf("Restore of re-snapshot: %v", err)
		}
		s2, err := AppendState(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Fatal("re-snapshot is not bit-identical")
		}

		// Law 2: continuation determinism — both restores must evolve
		// identically on the same suffix and agree on the verdict.
		suffix := make([]int64, 200)
		sfx := rng.New(77)
		for i := range suffix {
			suffix[i] = 1 + sfx.Int63n(1<<8)
		}
		e.OfferBatch(suffix)
		g.OfferBatch(suffix)
		ve, vg := e.Verdict(), g.Verdict()
		if ve != vg {
			t.Fatalf("restored engines diverge: %+v vs %+v", ve, vg)
		}
	})
}
