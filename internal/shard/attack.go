// The distributed-bisection adversary arm: the Figure-3 attack retargeted
// at ONE shard of a sharded engine. The adaptive client observes a single
// bit per round — "did my query enter the target shard's sample?" — which
// composes the routing draw (probability 1/S under uniform routing) with the
// shard sampler's admission draw, i.e. a Bernoulli(p/S) admission channel.
// Running Figure 3 against that channel sorts all target-admitted elements
// below all others, making the target shard's local sample maximally
// unrepresentative of the global stream. The other S-1 shards dilute the
// poisoned sample in the coordinator's merged verdict, but only to about
// targetKS/S: E18's golden rows read 0.52 / 0.27 / 0.16 at S = 2 / 4 / 8,
// against at most 0.002 for its benign continuous rows. E18 reports both
// numbers.
package shard

import (
	"robustsample/internal/adversary"
	"robustsample/internal/rng"
	"robustsample/internal/stats"
)

// TargetedOutcome reports one distributed-bisection attack run.
type TargetedOutcome struct {
	// S is the shard count, N the stream length.
	S, N int
	// TargetVsStream is the prefix (KS) discrepancy between the target
	// shard's local sample and the FULL routed stream — the quantity the
	// attack maximizes.
	TargetVsStream float64
	// TargetLocal is the target shard's local verdict (its sample vs its
	// own substream).
	TargetLocal float64
	// GlobalErr is the coordinator's merged verdict: union stream vs
	// union sample.
	GlobalErr float64
	// TargetSampleLen is the size the target's sample reached.
	TargetSampleLen int
}

// RunTargetedBisectionUnbounded plays the attack over an UNBOUNDED ordered
// universe, where Theorem 1.3 says bisection must win: the composed channel
// "routed to shard 0 (probability 1/S) and admitted by its Bernoulli(p)
// sampler" is value-independent, so the exact attack simulation of Section 5
// (adversary.RunExactBisectionFunc) applies verbatim, drawing each round's
// routing and admission coins up front. All elements ever admitted to the
// target end up below all other stream elements, driving the target shard's
// sample-vs-stream KS distance toward 1, while the union sample — the other
// S-1 shards are untouched Bernoulli samples of their substreams — dilutes
// the coordinator's merged verdict to about that distance over S.
func RunTargetedBisectionUnbounded(shards, n int, p float64, root *rng.RNG) TargetedOutcome {
	if shards < 1 {
		panic("shard: need at least 1 shard")
	}
	if n < 1 {
		panic("shard: attack needs n >= 1")
	}
	routes := make([]int, n)
	adms := make([]bool, n)
	res := adversary.RunExactBisectionFunc(n, func(round int) bool {
		s := root.Intn(shards)
		a := root.Bernoulli(p)
		routes[round-1] = s
		adms[round-1] = a
		return s == 0 && a
	})
	var targetSub, targetSample, union []int64
	for i, x := range res.Stream {
		if adms[i] {
			union = append(union, x)
		}
		if routes[i] == 0 {
			targetSub = append(targetSub, x)
			if adms[i] {
				targetSample = append(targetSample, x)
			}
		}
	}
	return TargetedOutcome{
		S:               shards,
		N:               n,
		TargetVsStream:  stats.KSDistanceInt64(res.Stream, targetSample),
		TargetLocal:     stats.KSDistanceInt64(targetSub, targetSample),
		GlobalErr:       stats.KSDistanceInt64(res.Stream, union),
		TargetSampleLen: len(targetSample),
	}
}
