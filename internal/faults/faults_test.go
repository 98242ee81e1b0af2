package faults

import (
	"testing"
	"time"
)

// Total returns the total number of injected faults.
func (p *Plan) Total() uint64 {
	var n uint64
	for i := Op(1); i < numOps; i++ {
		n += p.counts[i].Load()
	}
	return n
}

// Ordinal returns shard s's current apply ordinal (how many chunks have
// been decided on so far).
func (p *Plan) Ordinal(shard int) uint64 { return p.lanes[shard].ord.Load() }

// TestParseSpec checks the CLI syntax round-trips into the right Spec.
func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=42,crash=0.01,stall=0.005@20ms,delay=0.1@200us,corrupt=0.01,hard=0.001,max=3")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Seed != 42 || spec.CrashProb != 0.01 ||
		spec.StallProb != 0.005 || spec.StallFor != 20*time.Millisecond ||
		spec.DelayProb != 0.1 || spec.DelayFor != 200*time.Microsecond ||
		spec.CorruptProb != 0.01 || spec.HardCorruptProb != 0.001 ||
		spec.MaxPerShard != 3 {
		t.Fatalf("ParseSpec = %+v", spec)
	}
	if _, err := ParseSpec(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if _, err := ParseSpec("  "); err != nil {
		t.Fatalf("blank spec: %v", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"crash",               // not key=value
		"wedge=0.1",           // unknown key
		"crash=lots",          // bad float
		"crash=1.5",           // out of range
		"crash=0.7,stall=0.7", // sum > 1
		"stall=0.1@fast",      // bad duration
		"seed=-1",             // bad uint
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want failure", bad)
		}
	}
}

// TestDecideDeterministic: two plans with the same spec produce identical
// decision streams, and a different seed produces a different one.
func TestDecideDeterministic(t *testing.T) {
	spec := Spec{Seed: 7, CrashProb: 0.05, StallProb: 0.05, DelayProb: 0.1, CorruptProb: 0.05, HardCorruptProb: 0.01}
	const shards, n = 3, 400
	run := func(p *Plan) [shards][n]Op {
		var out [shards][n]Op
		for s := 0; s < shards; s++ {
			for i := 0; i < n; i++ {
				out[s][i] = p.Decide(s, 0).Op
			}
		}
		return out
	}
	a := run(MustPlan(spec, shards))
	b := run(MustPlan(spec, shards))
	if a != b {
		t.Fatal("same seed produced different decision streams")
	}
	spec2 := spec
	spec2.Seed = 8
	if a == run(MustPlan(spec2, shards)) {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestDecideShardIndependence: shard s's decisions do not change when the
// shards interleave differently — each shard owns a private stream.
func TestDecideShardIndependence(t *testing.T) {
	spec := Spec{Seed: 11, CrashProb: 0.2, DelayProb: 0.2}
	const n = 200
	seq := func(p *Plan, s int) [n]Op {
		var out [n]Op
		for i := range out {
			out[i] = p.Decide(s, 0).Op
		}
		return out
	}
	// Plan A: shard 0 fully first, then shard 1. Plan B: interleaved.
	pa := MustPlan(spec, 2)
	a0 := seq(pa, 0)
	a1 := seq(pa, 1)
	pb := MustPlan(spec, 2)
	var b0, b1 [n]Op
	for i := 0; i < n; i++ {
		b0[i] = pb.Decide(0, 0).Op
		b1[i] = pb.Decide(1, 0).Op
	}
	if a0 != b0 || a1 != b1 {
		t.Fatal("interleaving changed a shard's decision stream")
	}
}

// TestScheduledCrashes: CrashOrdinals fire at exactly the listed ordinals,
// regardless of probabilistic settings, and are exempt from MaxPerShard.
func TestScheduledCrashes(t *testing.T) {
	spec := Spec{
		Seed:          3,
		CrashOrdinals: [][]uint64{{2, 5}, {1}},
		MaxPerShard:   1, // must not suppress scheduled crashes
	}
	p := MustPlan(spec, 2)
	var got0 []uint64
	for i := 0; i < 8; i++ {
		if p.Decide(0, 0).Op == Crash {
			got0 = append(got0, p.Ordinal(0))
		}
	}
	if len(got0) != 2 || got0[0] != 2 || got0[1] != 5 {
		t.Fatalf("shard 0 crashes at ordinals %v, want [2 5]", got0)
	}
	if p.Decide(1, 0).Op != Crash {
		t.Fatal("shard 1 ordinal 1 did not crash")
	}
	if p.Decide(1, 0).Op == Crash {
		t.Fatal("shard 1 ordinal 2 crashed without schedule")
	}
	if got := p.Count(Crash); got != 3 {
		t.Fatalf("Count(Crash) = %d, want 3", got)
	}
	if got := p.Total(); got != 3 {
		t.Fatalf("Total() = %d, want 3", got)
	}
}

// TestRetrySemantics: attempt > 0 injects nothing except a repeating
// HardCorrupt, which persists until the next attempt-0 decision.
func TestRetrySemantics(t *testing.T) {
	// HardCorruptProb = 1 makes every attempt-0 draw a hard corruption.
	p := MustPlan(Spec{Seed: 1, HardCorruptProb: 1}, 1)
	if op := p.Decide(0, 0).Op; op != HardCorrupt {
		t.Fatalf("attempt 0 = %v, want hard-corrupt", op)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		if op := p.Decide(0, attempt).Op; op != HardCorrupt {
			t.Fatalf("attempt %d = %v, want repeating hard-corrupt", attempt, op)
		}
	}

	// A transient fault does not repeat on retries.
	p2 := MustPlan(Spec{Seed: 1, CrashProb: 1}, 1)
	if op := p2.Decide(0, 0).Op; op != Crash {
		t.Fatalf("attempt 0 = %v, want crash", op)
	}
	if op := p2.Decide(0, 1).Op; op != None {
		t.Fatalf("retry after crash = %v, want none", op)
	}
}

// TestMaxPerShard caps probabilistic injections per shard.
func TestMaxPerShard(t *testing.T) {
	p := MustPlan(Spec{Seed: 5, DelayProb: 1, MaxPerShard: 4}, 2)
	injected := 0
	for i := 0; i < 100; i++ {
		if p.Decide(0, 0).Op != None {
			injected++
		}
	}
	if injected != 4 {
		t.Fatalf("shard 0 injected %d faults, want MaxPerShard=4", injected)
	}
	// The cap is per shard: shard 1 still injects.
	if p.Decide(1, 0).Op != Delay {
		t.Fatal("shard 1 suppressed by shard 0's cap")
	}
}

// TestStallDelayDurations: defaults apply when the spec leaves them zero.
func TestStallDelayDurations(t *testing.T) {
	p := MustPlan(Spec{Seed: 2, StallProb: 1}, 1)
	d := p.Decide(0, 0)
	if d.Op != Stall || d.Sleep != 20*time.Millisecond {
		t.Fatalf("stall decision = %+v, want default 20ms", d)
	}
	p2 := MustPlan(Spec{Seed: 2, DelayProb: 1, DelayFor: time.Millisecond}, 1)
	d2 := p2.Decide(0, 0)
	if d2.Op != Delay || d2.Sleep != time.Millisecond {
		t.Fatalf("delay decision = %+v, want 1ms", d2)
	}
}

func TestPoisonHelpers(t *testing.T) {
	xs := []int64{1, 2, 3}
	if Poisoned(xs) {
		t.Fatal("clean chunk reported poisoned")
	}
	PoisonChunk(xs)
	for i, x := range xs {
		if x != Poison {
			t.Fatalf("xs[%d] = %d after PoisonChunk", i, x)
		}
	}
	if !Poisoned(xs) {
		t.Fatal("poisoned chunk reported clean")
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(Spec{}, 0); err == nil {
		t.Fatal("NewPlan with 0 shards succeeded")
	}
	if _, err := NewPlan(Spec{CrashProb: 2}, 1); err == nil {
		t.Fatal("NewPlan with bad probability succeeded")
	}
}
