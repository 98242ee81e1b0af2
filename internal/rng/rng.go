// Package rng provides a deterministic, splittable pseudo-random source used
// throughout the repository.
//
// The adversarial games in the paper are probabilistic processes: both the
// sampler and the adversary flip coins every round, and every experiment
// repeats the game across many independent trials. To make every table in
// DESIGN.md's experiment index reproducible bit-for-bit, all randomness
// flows through this package: an experiment owns a root RNG seeded from the
// command line, and each trial receives an independent stream via Split
// (trial RNGs are pre-split sequentially even when trials run on a worker
// pool, so parallel output matches serial output exactly). The generator is
// PCG-XSL-RR 128/64 (the same family as math/rand/v2's PCG), implemented
// here so that stream splitting is explicit and stable across Go releases.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a PCG-XSL-RR 128/64 generator. The zero value is not valid; use New.
type RNG struct {
	hi, lo uint64 // 128-bit state
}

const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed, seed^0x9e3779b97f4a7c15)
	return r
}

// NewWithStream returns a generator whose output stream is determined by both
// seed and stream. Distinct stream values yield statistically independent
// sequences for the same seed.
func NewWithStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.seed(seed, stream)
	return r
}

func (r *RNG) seed(seed, stream uint64) {
	// Standard PCG initialization: state 0, advance, add seed, advance.
	r.hi, r.lo = 0, 0
	r.next()
	r.lo += splitmix(seed)
	r.hi += splitmix(stream)
	r.next()
}

// splitmix is SplitMix64, used to decorrelate raw user seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 applies one SplitMix64 step to x: a full-avalanche bijection for
// dispersing structured values deterministically (seed decorrelation here,
// hash-by-value shard routing in internal/shard). It draws no state from
// any generator.
func Mix64(x uint64) uint64 { return splitmix(x) }

// pcgStep is one generator step on explicit state words: it returns the
// advanced 128-bit LCG state and the XSL-RR output of the old state. The
// 128-bit multiply and add lower to single MULX/ADCX-style instructions via
// math/bits. Keeping the step value-typed lets the bulk Fill methods hoist
// the state into registers for a whole buffer instead of reloading it
// through the receiver pointer every draw.
func pcgStep(oldHi, oldLo uint64) (hi, lo, out uint64) {
	// 128-bit multiply of state by mul, then 128-bit add of inc.
	hi, lo = bits.Mul64(oldLo, mulLo)
	hi += oldHi*mulLo + oldLo*mulHi
	lo, carry := bits.Add64(lo, incLo, 0)
	hi = hi + incHi + carry

	// XSL-RR output function on the old state.
	xored := oldHi ^ oldLo
	rot := uint(oldHi >> 58)
	return hi, lo, xored>>rot | xored<<((64-rot)&63)
}

// next advances the 128-bit LCG state and returns the previous state
// passed through the XSL-RR output permutation.
func (r *RNG) next() uint64 {
	hi, lo, out := pcgStep(r.hi, r.lo)
	r.hi, r.lo = hi, lo
	return out
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.next() }

// State exports the generator's 128-bit internal state for snapshots. A
// generator restored with SetState produces exactly the sequence the
// original would have produced from this point on.
func (r *RNG) State() (hi, lo uint64) { return r.hi, r.lo }

// SetState overwrites the generator's internal state with a value previously
// obtained from State.
func (r *RNG) SetState(hi, lo uint64) { r.hi, r.lo = hi, lo }

// Split returns a new generator statistically independent of r. Splitting is
// deterministic: the child stream is derived from two draws of the parent, so
// a fixed root seed yields a fixed tree of generators.
func (r *RNG) Split() *RNG {
	return NewWithStream(r.next(), r.next()|1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's unbiased method.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling on the high multiply.
	for {
		hi, lo := bits.Mul64(r.next(), n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials. It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return saturateGeom(math.Floor(math.Log(u) / math.Log(1-p)))
}

// GeometricInv is Geometric with the reciprocal log precomputed: invLogQ
// must equal 1/ln(1-p) for the desired success probability p in (0, 1).
// Hot batch-ingest loops (Bernoulli gap-skipping) call this once per
// admitted element, so hoisting the logarithm out of the loop matters.
func (r *RNG) GeometricInv(invLogQ float64) int64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return saturateGeom(math.Floor(math.Log(u) * invLogQ))
}

// FillUniform64 fills buf with uniformly distributed 64-bit values. It
// draws exactly len(buf) sequential generator steps: the call leaves r in
// the same state as len(buf) Uint64 calls would, so bulk and per-call
// consumers of one generator interleave bit-identically. The generator
// state lives in locals for the whole buffer, which is what makes the bulk
// path cheaper than a Uint64 loop on the ingest hot path.
func (r *RNG) FillUniform64(buf []uint64) {
	hi, lo := r.hi, r.lo
	for i := range buf {
		hi, lo, buf[i] = pcgStep(hi, lo)
	}
	r.hi, r.lo = hi, lo
}

// FillFloat64 fills buf with uniform values in [0, 1), drawing exactly
// len(buf) sequential steps — bit-identical to len(buf) Float64 calls.
func (r *RNG) FillFloat64(buf []float64) {
	hi, lo := r.hi, r.lo
	for i := range buf {
		var u uint64
		hi, lo, u = pcgStep(hi, lo)
		buf[i] = float64(u>>11) / (1 << 53)
	}
	r.hi, r.lo = hi, lo
}

// saturateGeom converts a floored geometric draw to int64, saturating at
// MaxInt64: for microscopic p the exact draw overflows int64, and a
// saturated skip is indistinguishable from it for any realizable stream.
func saturateGeom(f float64) int64 {
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(f)
}

// Shuffle randomizes the order of n elements using swap (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf returns a value in [1, n] with probability proportional to rank^-s.
// It uses inverse-CDF over a precomputed table-free harmonic approximation
// for small n, falling back to rejection for large n. For the workload sizes
// in this repository (n <= 2^24) the simple inversion loop is fast enough
// only for small n, so Zipf is provided through the ZipfGen type instead.
type ZipfGen struct {
	n   int64
	s   float64
	cdf []float64 // cumulative probabilities, len n (only for n <= zipfTableMax)
}

const zipfTableMax = 1 << 20

// NewZipf constructs a Zipf(s) generator over [1, n]. For n beyond the table
// limit it panics; experiments use universes within the limit when Zipfian
// workloads are requested.
func NewZipf(n int64, s float64) *ZipfGen {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if n > zipfTableMax {
		panic("rng: Zipf table too large")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += math.Pow(float64(i), -s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfGen{n: n, s: s, cdf: cdf}
}

// Draw returns a Zipf-distributed value in [1, n].
func (z *ZipfGen) Draw(r *RNG) int64 {
	u := r.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo + 1)
}
