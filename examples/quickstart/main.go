// Quickstart: maintain an adversarially robust sample of a stream through
// the public Sketch[T] surface.
//
// This example sizes a reservoir per Theorem 1.2 of "The Adversarial
// Robustness of Sampling" (Ben-Eliezer & Yogev, PODS 2020) via
// sketch.NewRobustReservoir, feeds it a stream, and verifies the sample is
// an eps-approximation of the stream with respect to all prefix ranges —
// the guarantee that would hold (with probability 1-delta) even if every
// element had been chosen by an adversary watching the sample.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
	"robustsample/sketch"
)

func main() {
	const (
		n        = 50000
		universe = int64(1) << 20
		eps      = 0.05
		delta    = 0.01
	)
	u, err := sketch.NewInt64Universe(universe)
	if err != nil {
		panic(err)
	}

	// Theorem 1.2: k = 2 (ln|U| + ln(2/delta)) / eps^2. Constructors
	// return errors instead of panicking; the sketch owns its RNG.
	res, err := sketch.NewRobustReservoir(u, eps, delta, n, sketch.WithSeed(42))
	if err != nil {
		panic(err)
	}
	fmt.Printf("robust reservoir size k = %d (Theorem 1.2)\n", res.K())

	// Feed a stream. Here it is a skewed static workload; the guarantee
	// would be the same against any adaptive choice.
	r := rng.New(42)
	stream := make([]int64, n)
	for i := range stream {
		// Mixture: mostly low values, occasional high spikes.
		if r.Bernoulli(0.8) {
			stream[i] = 1 + r.Int63n(universe/8)
		} else {
			stream[i] = universe/2 + r.Int63n(universe/2)
		}
	}
	if _, err := res.OfferBatch(stream); err != nil {
		panic(err)
	}

	// Exact verdict via the prefix set system against the encoded view
	// (the identity universe encodes values as themselves).
	sys := setsystem.NewPrefixes(universe)
	d := sys.MaxDiscrepancy(stream, res.EncodedView())
	fmt.Printf("sample size |S| = %d\n", res.Len())
	fmt.Printf("exact approximation error = %.4f (target eps = %.2f)\n", d.Err, eps)
	fmt.Printf("worst range = [%d, %d]\n", d.Lo, d.Hi)
	if d.Err <= eps {
		fmt.Println("sample IS an eps-approximation of the stream ✓")
	} else {
		fmt.Println("sample is NOT an eps-approximation (probability <= delta)")
	}

	// The sketch is serializable: checkpoint and resume bit-identically.
	snap, err := res.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot: %d bytes (Restore resumes bit-identically)\n", len(snap))
}
