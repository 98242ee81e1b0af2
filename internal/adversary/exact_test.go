package adversary

import (
	"math"
	"reflect"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
)

func TestExactBernoulliStreamIsPermutationOfRanks(t *testing.T) {
	r := rng.New(1)
	res := RunExactBisectionBernoulli(1000, 0.01, r)
	if len(res.Stream) != 1000 {
		t.Fatalf("stream length %d", len(res.Stream))
	}
	seen := make(map[int64]bool)
	for _, v := range res.Stream {
		if v < 1 || v > 1000 || seen[v] {
			t.Fatalf("stream is not a permutation of 1..n: %d", v)
		}
		seen[v] = true
	}
}

func TestExactBernoulliSampleIsSmallest(t *testing.T) {
	// The defining property of the attack (Section 5): the final sample
	// is exactly the |S| smallest elements of the stream.
	root := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		r := root.Split()
		res := RunExactBisectionBernoulli(2000, 0.01, r)
		if !res.SampleIsPrefixOfAdmitted {
			t.Fatal("Claim 5.2 invariant violated")
		}
		s := len(res.Sample)
		if s == 0 {
			continue
		}
		for _, v := range res.Sample {
			if v > int64(s) {
				t.Fatalf("sample value %d exceeds sample size %d: not the smallest elements", v, s)
			}
		}
		if res.TotalAdmitted != s {
			t.Fatalf("Bernoulli TotalAdmitted %d != |S| %d", res.TotalAdmitted, s)
		}
	}
}

func TestExactBernoulliDiscrepancyLarge(t *testing.T) {
	// Theorem 1.3(1): the prefix discrepancy is 1 - |S|/n, which exceeds
	// 1/2 whenever |S| < n/2 (it always is at small p).
	root := rng.New(3)
	const n = 5000
	fails := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		res := RunExactBisectionBernoulli(n, 0.005, r)
		if len(res.Sample) == 0 {
			continue
		}
		d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
		want := 1 - float64(len(res.Sample))/float64(n)
		if math.Abs(d.Err-want) > 1e-9 {
			t.Fatalf("discrepancy %v, theory predicts exactly %v", d.Err, want)
		}
		if d.Err > 0.5 {
			fails++
		}
	}
	if fails < trials/2 {
		t.Fatalf("attack broke only %d/%d trials", fails, trials)
	}
}

func TestExactReservoirSampleAmongAdmitted(t *testing.T) {
	root := rng.New(4)
	const n, k = 5000, 10
	for trial := 0; trial < 10; trial++ {
		r := root.Split()
		res := RunExactBisectionReservoir(n, k, r)
		if !res.SampleIsPrefixOfAdmitted {
			t.Fatal("Claim 5.2 invariant violated for reservoir")
		}
		if len(res.Sample) != k {
			t.Fatalf("reservoir sample size %d, want %d", len(res.Sample), k)
		}
		// Every sampled element is among the k' smallest.
		for _, v := range res.Sample {
			if v > int64(res.TotalAdmitted) {
				t.Fatalf("sample value %d above k' = %d", v, res.TotalAdmitted)
			}
		}
	}
}

func TestExactReservoirKPrimeBound(t *testing.T) {
	// Section 5: with probability >= 1/2, k' <= 4k ln n. Verify the
	// empirical mean is near k(1 + ln(n/k)) and the 4k ln n bound holds
	// in most trials.
	root := rng.New(5)
	const n, k, trials = 5000, 10, 50
	within := 0
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		res := RunExactBisectionReservoir(n, k, r)
		sum += float64(res.TotalAdmitted)
		if float64(res.TotalAdmitted) <= 4*float64(k)*math.Log(n) {
			within++
		}
	}
	if within < trials/2 {
		t.Fatalf("k' <= 4k ln n in only %d/%d trials", within, trials)
	}
	mean := sum / trials
	predicted := float64(k) * (1 + math.Log(float64(n)/float64(k)))
	if mean < predicted*0.7 || mean > predicted*1.3 {
		t.Fatalf("mean k' = %v, predicted ~%v", mean, predicted)
	}
}

func TestExactReservoirDiscrepancyLarge(t *testing.T) {
	// Theorem 1.3(2): prefix discrepancy > 1/2 with probability >= 1/2
	// when k is small; here k' / n << 1/2 so the density of the prefix
	// of admitted elements is ~1 in the sample vs k'/n in the stream.
	root := rng.New(6)
	const n, k, trials = 5000, 10, 30
	fails := 0
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		res := RunExactBisectionReservoir(n, k, r)
		d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
		if d.Err > 0.5 {
			fails++
		}
	}
	if fails < trials*3/4 {
		t.Fatalf("attack broke only %d/%d reservoir trials", fails, trials)
	}
}

func TestExactAttackDeterministic(t *testing.T) {
	a := RunExactBisectionBernoulli(500, 0.05, rng.New(7))
	b := RunExactBisectionBernoulli(500, 0.05, rng.New(7))
	for i := range a.Stream {
		if a.Stream[i] != b.Stream[i] {
			t.Fatal("attack not deterministic under fixed seed")
		}
	}
}

// TestExactBisectionFuncIsSamplerOverAdmittedRounds: the attack on an
// admission channel (RunExactBisectionFunc, here a Bernoulli(p) channel) is
// the attack on a sampler driven by the same draws whose final sample is
// every admitted round, in order.
func TestExactBisectionFuncIsSamplerOverAdmittedRounds(t *testing.T) {
	const n = 2000
	for _, p := range []float64{0, 0.01, 0.2, 1} {
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed)
			draws := make([]bool, n+1)
			for i := 1; i <= n; i++ {
				draws[i] = r.Bernoulli(p)
			}
			want := RunExactBisectionSampler(n, func(round int) bool { return draws[round] }, func() []int {
				var rounds []int
				for i := 1; i <= n; i++ {
					if draws[i] {
						rounds = append(rounds, i)
					}
				}
				return rounds
			})
			r = rng.New(seed)
			got := RunExactBisectionFunc(n, func(int) bool { return r.Bernoulli(p) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%v seed %d: Func attack differs from the Sampler attack over the admitted rounds", p, seed)
			}
			if got.TotalAdmitted != len(got.Sample) {
				t.Fatalf("p=%v seed %d: %d admitted but %d sampled", p, seed, got.TotalAdmitted, len(got.Sample))
			}
		}
	}
}

func TestExactAttackEdgeCases(t *testing.T) {
	r := rng.New(8)
	// p = 1: everything admitted; stream must be increasing.
	res := RunExactBisectionBernoulli(50, 1, r)
	for i := 1; i < len(res.Stream); i++ {
		if res.Stream[i] <= res.Stream[i-1] {
			t.Fatal("all-admitted attack stream must be strictly increasing")
		}
	}
	if len(res.Sample) != 50 {
		t.Fatal("p=1 should sample everything")
	}
	// p = 0: nothing admitted; stream must be decreasing.
	res = RunExactBisectionBernoulli(50, 0, r)
	for i := 1; i < len(res.Stream); i++ {
		if res.Stream[i] >= res.Stream[i-1] {
			t.Fatal("all-rejected attack stream must be strictly decreasing")
		}
	}
	if len(res.Sample) != 0 {
		t.Fatal("p=0 should sample nothing")
	}
}

func TestExactAttackPanics(t *testing.T) {
	for _, f := range []func(){
		func() { RunExactBisectionBernoulli(0, 0.5, rng.New(1)) },
		func() { RunExactBisectionBernoulli(10, -0.1, rng.New(1)) },
		func() { RunExactBisectionReservoir(0, 1, rng.New(1)) },
		func() { RunExactBisectionReservoir(10, 0, rng.New(1)) },
		func() { RequiredLogUniverse(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRequiredLogUniverseScale(t *testing.T) {
	// For n = 10^5 with p' = ln n / n, the required ln N must far exceed
	// ln(2^63) ~ 43.7, demonstrating why the exact runner exists.
	n := 100000
	pp := math.Log(float64(n)) / float64(n)
	if got := RequiredLogUniverse(n, pp); got < 60 {
		t.Fatalf("required ln N = %v, expected >> 43.7", got)
	}
	// And it must stay below the paper's 2^(n/2) ceiling.
	if got := RequiredLogUniverse(n, pp); got > float64(n)/2*math.Ln2 {
		t.Fatalf("required ln N = %v exceeds paper ceiling", got)
	}
}

// BenchmarkExactBisectionAttack measures the exact unbounded-universe attack
// against ReservoirSample(20).
func BenchmarkExactBisectionAttack(b *testing.B) {
	root := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunExactBisectionReservoir(10000, 20, root)
	}
}
