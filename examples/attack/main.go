// Attack: the Section 1 / Section 5 median attack, end to end.
//
// An adversary that sees the sample after every round runs the Figure-3
// bisection strategy: submit the split point of a working range, and move
// the range up when the element is sampled, down when it is not. The final
// sample consists of exactly the smallest |S| stream elements, so its
// median sits near the stream's minimum instead of its middle.
//
// The attack needs a universe exponentially larger than int64 permits
// (Theorem 1.3 requires |R| up to 2^(n/2)); this example uses the exact
// unbounded-universe simulation. Experiment E3 reports how large the
// universe would have needed to be (its required-lnN column):
// go run ./cmd/robustbench -exp E3.
//
// Run: go run ./examples/attack
package main

import (
	"fmt"
	"math"
	"slices"

	"robustsample/internal/adversary"
	"robustsample/internal/core"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
)

func main() {
	const n = 20000
	p := 4 * math.Log(float64(n)) / float64(n) // far below the Thm 1.2 rate

	r := rng.New(7)
	res := adversary.RunExactBisectionBernoulli(n, p, r)

	sys := setsystem.NewPrefixes(int64(n))
	d := sys.MaxDiscrepancy(res.Stream, res.Sample)

	fmt.Printf("stream length n = %d, Bernoulli rate p = %.5f\n", n, p)
	fmt.Printf("sample size |S| = %d\n", len(res.Sample))
	fmt.Printf("all sampled elements are the smallest in the stream: %v\n",
		res.SampleIsPrefixOfAdmitted)

	sorted := append([]int64(nil), res.Sample...)
	slices.Sort(sorted)
	if len(sorted) > 0 {
		med := sorted[len(sorted)/2]
		fmt.Printf("sample median has stream rank %d of %d (unattacked: ~%d)\n",
			med, n, n/2)
	}
	fmt.Printf("prefix approximation error = %.4f (Theorem 1.3: > 1/2 whp)\n", d.Err)

	// Contrast: the same sampler sized per Theorem 1.2 cannot be broken,
	// because within any realistic (bounded) universe the attack runs out
	// of precision. Demonstrate with a bounded-universe adaptive game.
	universe := int64(1) << 20
	params := core.Params{Eps: 0.2, Delta: 0.1, N: n}
	bsys := setsystem.NewPrefixes(universe)
	robust := core.NewRobustBernoulli(params, bsys)
	adv := adversary.NewBisection(universe, math.Log(float64(n))/float64(n))
	out := game.Run(robust, adv, bsys, n, params.Eps, r)
	fmt.Printf("\nsame attack vs Theorem 1.2-sized sampler on U = [2^20]:\n")
	fmt.Printf("approximation error = %.4f (target eps = %.2f) ok=%v\n",
		out.Discrepancy.Err, params.Eps, out.OK)
}
