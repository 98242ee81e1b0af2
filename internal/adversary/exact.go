package adversary

import (
	"math"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
)

// The int64 Bisection adversary can only run while the working range
// contains integers, which per Claim 5.1 requires ln N to exceed roughly
// 2np' ln(1/p') + 3np'. For the parameter regimes of Theorem 1.3 that N is
// astronomically larger than 2^63, so the attack cannot be driven through
// int64 arithmetic at interesting stream lengths.
//
// The exact runners below simulate the attack over an *unbounded* ordered
// universe instead, exploiting two structural facts:
//
//  1. The samplers never inspect element values — Bernoulli flips an
//     independent coin, and Algorithm R's admission depends only on the
//     round number. Values matter only for the final verdict, which depends
//     only on the *order* of the elements.
//  2. In the bisection attack the open working range (a_i, b_i) never
//     contains a previously submitted element (Claim 5.2), so a and b are
//     always adjacent in the sorted order of submissions and the new
//     element slots between them in O(1) via a linked list.
//
// After the game, elements are relabeled 1..n by sorted order, giving an
// order-isomorphic int64 stream whose discrepancies equal those of the
// unbounded-universe attack. RequiredLogUniverse reports how large ln N a
// direct integer simulation would have needed, which the experiment tables
// print to show why Theorem 1.3 demands |R| exponential in n.

// AttackResult is the outcome of an exact bisection attack.
type AttackResult struct {
	// Stream is the submitted stream relabeled to ranks 1..n (all values
	// distinct); order-isomorphic to the unbounded-universe attack.
	Stream []int64
	// Sample is the final sample under the same relabeling.
	Sample []int64
	// TotalAdmitted is the number of rounds whose element was admitted
	// (for the reservoir this is k' from Section 5, including evicted
	// elements; for Bernoulli it equals len(Sample)).
	TotalAdmitted int
	// SampleIsPrefixOfAdmitted reports the Claim 5.2 invariant: every
	// sampled element is smaller than every never-admitted element.
	SampleIsPrefixOfAdmitted bool
}

// node is an element in the sorted-order linked list of submissions.
type node struct {
	prev, next *node
	round      int // 1-based submission round; 0 for sentinels
}

// orderTracker maintains the sorted order of submissions and the working
// range boundaries (a, b), which are always adjacent nodes.
type orderTracker struct {
	head, tail *node // sentinels: head < everything < tail
	a, b       *node
	count      int
}

func newOrderTracker() *orderTracker {
	h := &node{}
	t := &node{}
	h.next, t.prev = t, h
	return &orderTracker{head: h, tail: t, a: h, b: t}
}

// submit inserts the element of the given round strictly between a and b and
// returns its node.
func (o *orderTracker) submit(round int) *node {
	n := &node{round: round, prev: o.a, next: o.b}
	o.a.next = n
	o.b.prev = n
	o.count++
	return n
}

// feedback narrows the working range: if admitted, the last element becomes
// the new lower bound a; otherwise the new upper bound b (Figure 3).
func (o *orderTracker) feedback(n *node, admitted bool) {
	if admitted {
		o.a = n
	} else {
		o.b = n
	}
}

// ranks returns a map from round to 1-based rank in sorted order.
func (o *orderTracker) ranks() map[int]int64 {
	out := make(map[int]int64, o.count)
	rank := int64(0)
	for n := o.head.next; n != o.tail; n = n.next {
		rank++
		out[n.round] = rank
	}
	return out
}

// RunExactBisectionFunc plays the Figure-3 attack for n rounds over an
// unbounded ordered universe against an arbitrary admission process: admit
// is called once per round (1-based) and reports whether that round's
// element entered the sample, which keeps every admitted element. This
// generalizes the attack to any Bernoulli-like admission channel — e.g.
// "was this query routed to server 0?" in the distributed-database
// experiment.
func RunExactBisectionFunc(n int, admit func(round int) bool) AttackResult {
	if admit == nil {
		panic("adversary: attack needs an admission function")
	}
	var kept []int
	return RunExactBisectionSampler(n, func(round int) bool {
		if !admit(round) {
			return false
		}
		kept = append(kept, round)
		return true
	}, func() []int { return kept })
}

// RunExactBisectionBernoulli plays the Figure-3 attack against
// BernoulliSample(p) for n rounds over an unbounded ordered universe.
func RunExactBisectionBernoulli(n int, p float64, r *rng.RNG) AttackResult {
	if p < 0 || p > 1 {
		panic("adversary: p must be in [0, 1]")
	}
	return RunExactBisectionFunc(n, func(int) bool { return r.Bernoulli(p) })
}

// RunExactBisectionSampler plays the Figure-3 attack over an unbounded
// ordered universe against any sampler that stores round numbers: offer is
// called once per 1-based round and reports admission; final returns the
// rounds remaining in the sample at the end. Used for reservoir variants
// (Algorithm R, Algorithm L, with-replacement) in the ablation experiment.
func RunExactBisectionSampler(n int, offer func(round int) bool, final func() []int) AttackResult {
	if n < 1 {
		panic("adversary: attack needs n >= 1")
	}
	if offer == nil || final == nil {
		panic("adversary: attack needs offer and final functions")
	}
	o := newOrderTracker()
	admitted := make([]bool, n+1)
	total := 0
	for i := 1; i <= n; i++ {
		nd := o.submit(i)
		adm := offer(i)
		admitted[i] = adm
		if adm {
			total++
		}
		o.feedback(nd, adm)
	}
	return assembleAttack(o, admitted, final(), total)
}

// RunExactBisectionReservoir plays the Figure-3 attack against
// ReservoirSample(k) for n rounds over an unbounded ordered universe.
func RunExactBisectionReservoir(n, k int, r *rng.RNG) AttackResult {
	if k < 1 {
		panic("adversary: attack needs k >= 1")
	}
	res := sampler.NewReservoir[int](k)
	samplerRNG := r.Split()
	return RunExactBisectionSampler(n,
		func(i int) bool { return res.Offer(i, samplerRNG) },
		func() []int { return res.View() })
}

// assembleAttack relabels rounds to ranks and packages the result; the
// sample is the rounds in finalRounds, in that order.
func assembleAttack(o *orderTracker, admitted []bool, finalRounds []int, total int) AttackResult {
	rank := o.ranks()
	n := o.count
	stream := make([]int64, n)
	for i := 1; i <= n; i++ {
		stream[i-1] = rank[i]
	}
	var sample []int64
	for _, round := range finalRounds {
		sample = append(sample, rank[round])
	}

	// Claim 5.2 invariant: every admitted element is smaller than every
	// never-admitted element. Find the largest admitted rank and the
	// smallest never-admitted rank.
	maxAdmitted := int64(0)
	minRejected := int64(n + 1)
	for i := 1; i <= n; i++ {
		if admitted[i] {
			if rank[i] > maxAdmitted {
				maxAdmitted = rank[i]
			}
		} else if rank[i] < minRejected {
			minRejected = rank[i]
		}
	}
	return AttackResult{
		Stream:                   stream,
		Sample:                   sample,
		TotalAdmitted:            total,
		SampleIsPrefixOfAdmitted: maxAdmitted < minRejected,
	}
}

// RequiredLogUniverse returns (an estimate of) the natural log of the
// universe size a direct integer simulation of the Figure-3 attack would
// need, following Claim 5.1's accounting: each of ~np' admissions shrinks
// the working range by a factor p' and each rejection by (1-p'), and the
// final range must still contain at least n integers.
func RequiredLogUniverse(n int, pPrime float64) float64 {
	if pPrime <= 0 || pPrime >= 1 {
		panic("adversary: p' must be in (0, 1)")
	}
	nf := float64(n)
	admissions := nf * pPrime
	return admissions*math.Log(1/pPrime) + nf*math.Log(1/(1-pPrime)) + math.Log(nf)
}
