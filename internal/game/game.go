// Package game implements the two-player games of Section 2 of the paper:
// AdaptiveGame (Figure 1) and ContinuousAdaptiveGame (Figure 2) between a
// streaming Sampler and an adaptive Adversary.
//
// The game loop follows the paper exactly:
//
//  1. Adversary, seeing the sampler's current state σ_{i-1} and the history
//     x_1, ..., x_{i-1}, submits the next element x_i.
//  2. Sampler updates its state: σ_i <- Sampler(σ_{i-1}, x_i).
//  3. Adversary observes the updated state before the next round.
//
// The verdict is the exact epsilon-approximation check of Definition 1.1
// against the chosen set system. The package writes the game once (play):
// Figure 1 is Figure 2 judged at the single checkpoint n, so Run,
// RunContinuous and RunSharded differ only in the player they hand the loop
// — one sampler judged once, one sampler judged at a checkpoint schedule
// (every prefix, or the geometric grid of the proof of Theorem 1.4), or a
// sharded coordinator answering with its merged verdict.
package game

import (
	"errors"
	"fmt"
	"slices"

	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
)

// Sampler is the streaming-player interface specialized to ordered int64
// universes, as required by the adversarial games. Every sampler of the
// repository (Bernoulli, Algorithm R and L reservoirs, with-replacement)
// satisfies it via its int64 instantiation.
type Sampler interface {
	// Offer processes the next element; the returned flag is whether the
	// element entered the sample this round (visible to the adversary as
	// part of σ_i).
	Offer(x int64, r *rng.RNG) bool
	// View returns the current sample σ_i as a read-only slice.
	View() []int64
	// Len returns the current sample size.
	Len() int
	// Reset clears the sampler for a fresh game.
	Reset()
	// LastDelta reports how the sample multiset changed in the most recent
	// Offer (or, cumulatively, the most recent OfferBatch): the elements
	// added and the elements displaced (the reservoir eviction path). A
	// game judged at more than one checkpoint keeps its incremental verdict
	// engine in step with it at O(1) per round, and every game hands it to
	// the adversary (Observation.DeltaKnown). The slices are valid until
	// the next Offer/OfferBatch and must not be mutated.
	LastDelta() (added, removed []int64)
}

// SampleDeltaReporter is LastDelta on its own: the part of a Sampler that
// IngestBatchSynced reads.
type SampleDeltaReporter interface {
	LastDelta() (added, removed []int64)
}

// BatchSampler is an optional Sampler extension for bulk ingest: OfferBatch
// processes a run of consecutive stream elements in one call, with results
// invariant to how the stream is sliced into batches (the repository's
// reservoir-family samplers additionally draw randomness bit-identically to
// per-element Offers; Bernoulli's batch path uses geometric gap-skipping —
// the same admission law through different draws). The games use it to
// ingest the spans between checkpoints without per-element interface-call
// overhead.
type BatchSampler interface {
	OfferBatch(xs []int64, r *rng.RNG) int
}

// StreamGenerator is an optional Adversary extension for non-adaptive
// strategies: GenerateStream returns the full n-round stream in one call,
// drawing from r exactly as n successive Next calls would. Games detect it
// to skip per-round Observation construction and drive BatchSampler ingest;
// adaptive adversaries (which need the admission feedback round by round)
// must not implement it.
type StreamGenerator interface {
	GenerateStream(n int, r *rng.RNG) []int64
}

// SpanChunkCap caps how many rounds the span path ingests per
// OfferBatch/AddStreamBatch call. Any positive value yields identical
// results — batch ingestion is chunking-invariant — so this only tunes
// working-set locality; robustbench exposes it as -chunk to demonstrate the
// invariance.
var SpanChunkCap = 8192

func spanChunk() int {
	if SpanChunkCap < 1 {
		return 1
	}
	return SpanChunkCap
}

// Observation is what the adversary sees at the start of a round: precisely
// the information granted by Figure 1 (all previously submitted elements and
// the sampler's current state).
type Observation struct {
	// Round is the 1-based index of the round about to be played.
	Round int
	// N is the total stream length of this game.
	N int
	// Sample is σ_{i-1}, the sampler's state after the previous round.
	// It is a live view; adversaries must not mutate it.
	Sample []int64
	// LastAdmitted reports whether the element of the previous round was
	// admitted to the sample (false on round 1).
	LastAdmitted bool
	// History holds x_1, ..., x_{i-1}. It is a live view; adversaries
	// must not mutate it.
	History []int64
	// DeltaKnown reports whether Added and Removed hold the change the
	// previous round made to the sample: Sample equals the previous
	// round's Sample plus Added minus Removed, as multisets. The games set
	// it on every round but the first, except RunSharded, whose union
	// sample has no per-round delta (and hand-built Observations leave it
	// false). It adds nothing to what Figure 1 grants — the adversary saw
	// σ_{i-2} last round and sees σ_{i-1} now — but lets it follow the
	// sample at the cost of the change instead of re-reading the whole
	// view.
	DeltaKnown bool
	// Added and Removed are the previous round's sample delta when
	// DeltaKnown is set. They are live views valid for this round only;
	// adversaries must not mutate them.
	Added, Removed []int64
}

// Adversary chooses the stream adaptively. Implementations may be
// probabilistic; all randomness must come from the provided RNG so games are
// reproducible.
type Adversary interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Next returns the element x_i to submit given the observation.
	Next(obs Observation, r *rng.RNG) int64
	// Reset prepares the adversary for a fresh game.
	Reset()
}

// Result records the outcome of one AdaptiveGame.
type Result struct {
	// Stream is the full adversarial stream x_1..x_n.
	Stream []int64
	// Sample is the final sample S = σ_n.
	Sample []int64
	// Discrepancy is the exact maximal density deviation and witness.
	Discrepancy setsystem.Discrepancy
	// Eps is the approximation parameter the game was judged against.
	Eps float64
	// OK is the game output: true iff S is an eps-approximation of X.
	OK bool
}

func (r Result) String() string {
	return fmt.Sprintf("n=%d |S|=%d %v ok=%v", len(r.Stream), len(r.Sample), r.Discrepancy, r.OK)
}

// Run plays one AdaptiveGame of n rounds and returns the outcome: the
// continuous game judged once, at round n, by the set system's one-shot
// MaxDiscrepancy (no incremental engine is kept). The sampler and adversary
// are Reset before play. Sampler and adversary receive independent RNG
// streams split from r, matching the paper's model where the two players
// have private randomness.
//
// When the adversary is a StreamGenerator and the sampler a BatchSampler,
// the round loop collapses to one stream generation plus chunked bulk
// ingest — no per-round Observation or interface calls. For samplers whose
// batch path draws randomness identically to per-element Offers (the
// reservoir family) the outcome is bit-identical to the round loop;
// Bernoulli's gap-skipping batch path selects an equally distributed sample
// through different draws.
func Run(s Sampler, adv Adversary, sys setsystem.SetSystem, n int, eps float64, r *rng.RNG) Result {
	return play(&player{s: s, sys: sys}, adv, n, eps, nil, r).Result
}

// PrefixError records the exact approximation error of the sample against
// the stream prefix at a given round.
type PrefixError struct {
	Round int
	Err   float64
}

// ContinuousResult records the outcome of one ContinuousAdaptiveGame.
type ContinuousResult struct {
	Result
	// PrefixErrors holds the exact error at each evaluated checkpoint,
	// in increasing round order. The final round is always included.
	PrefixErrors []PrefixError
	// MaxPrefixErr is the maximum error across the checkpoints.
	MaxPrefixErr float64
	// FirstViolation is the earliest evaluated round whose error
	// exceeded eps, or 0 if none did. Per Figure 2, any violation makes
	// the game output 0.
	FirstViolation int
}

// ErrBadGamma is the sentinel reported by Checkpoints for a non-positive
// growth factor; MustCheckpoints panics instead.
var ErrBadGamma = errors.New("game: checkpoint gamma must be positive")

// Checkpoints returns the geometric checkpoint schedule used in the proof of
// Theorem 1.4: rounds start <= i_1 < i_2 < ... <= n with
// i_{j+1} <= (1+gamma) i_j, always including start and n. With gamma = eps/4
// this is the schedule the paper's proof uses; t = O(gamma^-1 ln n) points.
// It reports ErrBadGamma unless gamma > 0.
func Checkpoints(start, n int, gamma float64) ([]int, error) {
	if start < 1 {
		start = 1
	}
	if start > n {
		start = n
	}
	if gamma <= 0 {
		return nil, ErrBadGamma
	}
	points := []int{start}
	cur := start
	for cur < n {
		next := int(float64(cur) * (1 + gamma))
		if next <= cur {
			next = cur + 1
		}
		if next > n {
			next = n
		}
		points = append(points, next)
		cur = next
	}
	return points, nil
}

// MustCheckpoints is Checkpoints for callers with statically valid gamma
// (experiment code, tests); it panics on ErrBadGamma.
func MustCheckpoints(start, n int, gamma float64) []int {
	cps, err := Checkpoints(start, n, gamma)
	if err != nil {
		panic(err)
	}
	return cps
}

// normalizeCheckpoints returns the in-range checkpoints sorted ascending
// with duplicates removed, always including the final round n.
func normalizeCheckpoints(checkpoints []int, n int) []int {
	cps := make([]int, 0, len(checkpoints)+1)
	for _, c := range checkpoints {
		if c >= 1 && c <= n {
			cps = append(cps, c)
		}
	}
	cps = append(cps, n)
	slices.Sort(cps)
	return slices.Compact(cps)
}

// RunContinuous plays one ContinuousAdaptiveGame, evaluating the exact
// epsilon-approximation error at each round in checkpoints (out-of-range
// rounds are ignored; the final round n is evaluated even if absent). Unlike
// Figure 2 the game does not halt at the first violation — it records it and
// plays on, so experiments can report the full error trajectory. A schedule
// that reduces to round n alone is Run, judged once by MaxDiscrepancy.
//
// With more than one checkpoint, verdicts come from the set system's
// incremental Accumulator rather than a full re-sort of the stream prefix at
// every checkpoint: stream elements are folded in as they are played, and
// the sample side is kept in step through the sampler's LastDelta (covering
// reservoir evictions via RemoveSample). The per-checkpoint Discrepancy is
// bit-identical to sys.MaxDiscrepancy(stream[:i], sample_i).
//
// When the adversary is a StreamGenerator and the sampler a BatchSampler,
// the spans between checkpoints are driven through bulk ingest
// (IngestBatchSynced in SpanChunkCap-sized chunks) instead of the round
// loop; verdicts and trajectories are unchanged — bit-identical for the
// reservoir family, equal in distribution for Bernoulli.
func RunContinuous(s Sampler, adv Adversary, sys setsystem.SetSystem, n int, eps float64, checkpoints []int, r *rng.RNG) ContinuousResult {
	return RunContinuousWith(s, adv, sys, n, eps, checkpoints, r, nil)
}

// RunContinuousWith is RunContinuous with a caller-provided incremental
// engine: acc must have been obtained from sys.NewAccumulator or be nil, in
// which case a fresh engine is allocated. A game judged at more than one
// checkpoint Resets acc before play; a game judged once leaves it alone.
// Monte-Carlo drivers pass one accumulator per worker so the engine's
// compression tables and block storage are allocated once per worker
// instead of once per game; results are identical either way.
func RunContinuousWith(s Sampler, adv Adversary, sys setsystem.SetSystem, n int, eps float64, checkpoints []int, r *rng.RNG, acc *setsystem.Accumulator) ContinuousResult {
	return play(&player{s: s, sys: sys, acc: acc}, adv, n, eps, checkpoints, r)
}

// IngestBatchSynced feeds one batch of consecutive stream elements through
// the sampler's bulk path and keeps acc's two histograms exactly in step:
// the stream side always ingests xs, and the sample side is synced from the
// batch delta — additions applied before removals, so an element admitted
// and evicted within one batch never drives a count negative. Spans where
// the sampler admitted everything with no evictions (a filling reservoir)
// ingest both multisets in one fused pass. It returns the number of
// elements the sampler admitted from the batch.
//
// This is the bit-exactness-critical step shared by the continuous game's
// span path, the shard engine's per-shard flush, and the serving pipeline's
// consumer goroutines; keeping it in one place keeps those paths incapable
// of drifting apart.
func IngestBatchSynced(bs BatchSampler, deltas SampleDeltaReporter, acc *setsystem.Accumulator, xs []int64, r *rng.RNG) int {
	admitted := bs.OfferBatch(xs, r)
	added, removed := deltas.LastDelta()
	if len(removed) == 0 && slices.Equal(added, xs) {
		acc.AddStreamAndSampleBatch(xs)
		return admitted
	}
	acc.AddStreamBatch(xs)
	for _, a := range added {
		acc.AddSample(a)
	}
	for _, e := range removed {
		acc.RemoveSample(e)
	}
	return admitted
}

// player is the sampling side of a game: where the sample, the admission
// feedback and the verdict come from. It is either one sampler s — judged
// once by sys.MaxDiscrepancy when acc is nil, or kept in step with the
// incremental engine acc every round — or a sharded engine e answering with
// its merged Verdict.
type player struct {
	s   Sampler
	bs  BatchSampler // s's bulk path, if it has one
	sys setsystem.SetSystem
	acc *setsystem.Accumulator
	r   *rng.RNG // s's private stream

	e ShardedEngine
}

// start resets the player for a game of n rounds and splits its randomness
// from r. A sampler judged once keeps no engine; one judged at more
// checkpoints gets acc (or a fresh engine) Reset and pre-sized.
func (p *player) start(r *rng.RNG, n int, judgedOnce bool) {
	if p.e != nil {
		p.e.StartGame(r)
		return
	}
	p.s.Reset()
	p.r = r.Split()
	p.bs, _ = p.s.(BatchSampler)
	if judgedOnce {
		p.acc = nil
		return
	}
	if p.acc == nil {
		p.acc = p.sys.NewAccumulator()
	} else {
		p.acc.Reset()
	}
	// Distinct values are bounded by both the universe and (for in-repo
	// samplers, whose samples are stream subsets) the stream length; cap
	// the pre-sizing so giant games don't over-allocate.
	p.acc.Reserve(int(min(int64(n), p.sys.UniverseSize(), 1<<20)))
}

// view returns the sample the adversary observes.
func (p *player) view() []int64 {
	if p.e != nil {
		return p.e.SampleView()
	}
	return p.s.View()
}

// offer plays one round's element and reports whether it was admitted and,
// for a single sampler, the delta it made to the sample.
func (p *player) offer(x int64) (admitted bool, added, removed []int64) {
	if p.e != nil {
		_, admitted = p.e.Offer(x)
		return admitted, nil, nil
	}
	admitted = p.s.Offer(x, p.r)
	added, removed = p.s.LastDelta()
	if p.acc != nil {
		p.acc.AddStream(x)
		for _, a := range added {
			p.acc.AddSample(a)
		}
		for _, e := range removed {
			p.acc.RemoveSample(e)
		}
	}
	return admitted, added, removed
}

// offerSpan ingests a run of consecutive non-adaptive rounds in bulk.
func (p *player) offerSpan(xs []int64) {
	switch {
	case p.e != nil:
		p.e.OfferBatch(xs)
	case p.acc != nil:
		IngestBatchSynced(p.bs, p.s, p.acc, xs, p.r)
	default:
		p.bs.OfferBatch(xs, p.r)
	}
}

// verdict judges the sample against the stream prefix played so far.
func (p *player) verdict(prefix []int64) setsystem.Discrepancy {
	switch {
	case p.e != nil:
		return p.e.Verdict()
	case p.acc != nil:
		return p.acc.Max()
	default:
		return p.sys.MaxDiscrepancy(prefix, p.s.View())
	}
}

// sample returns a copy of the final sample.
func (p *player) sample() []int64 {
	if p.e != nil {
		return p.e.Sample()
	}
	return append([]int64(nil), p.s.View()...)
}

// play is the game of Section 2, written once: n rounds against adv,
// judged by p at every round of checkpoints (and always at round n). The
// adversary is Reset, then the player splits its randomness from r, then
// the adversary's stream is split. A StreamGenerator adversary facing a
// player with a bulk path is played span by span between checkpoints;
// every other game plays the literal round loop.
func play(p *player, adv Adversary, n int, eps float64, checkpoints []int, r *rng.RNG) ContinuousResult {
	if n < 1 {
		panic("game: stream length must be >= 1")
	}
	cps := normalizeCheckpoints(checkpoints, n)
	adv.Reset()
	p.start(r, n, len(cps) == 1)
	advRNG := r.Split()

	out := ContinuousResult{Result: Result{Eps: eps}}
	var stream []int64
	if gen, ok := adv.(StreamGenerator); ok && (p.e != nil || p.bs != nil) {
		stream = gen.GenerateStream(n, advRNG)
		if len(stream) < n {
			panic("game: stream generator produced short stream")
		}
		stream = stream[:n]
		played := 0
		for _, cp := range cps {
			for played < cp {
				j := min(played+spanChunk(), cp)
				p.offerSpan(stream[played:j])
				played = j
			}
			out.record(cp, p.verdict(stream[:cp]))
		}
	} else {
		stream = make([]int64, 0, n)
		admitted := false
		var added, removed []int64
		next := 0 // cursor into cps; cps is sorted and ends at n
		for i := 1; i <= n; i++ {
			x := adv.Next(Observation{
				Round:        i,
				N:            n,
				Sample:       p.view(),
				LastAdmitted: admitted,
				History:      stream,
				DeltaKnown:   p.e == nil && i > 1,
				Added:        added,
				Removed:      removed,
			}, advRNG)
			stream = append(stream, x)
			admitted, added, removed = p.offer(x)
			if cps[next] == i {
				next++
				out.record(i, p.verdict(stream))
			}
		}
	}

	out.Stream = stream
	out.Sample = p.sample()
	out.OK = out.FirstViolation == 0
	return out
}

// record appends the verdict d at round to the trajectory.
func (c *ContinuousResult) record(round int, d setsystem.Discrepancy) {
	c.PrefixErrors = append(c.PrefixErrors, PrefixError{Round: round, Err: d.Err})
	if d.Err > c.MaxPrefixErr {
		c.MaxPrefixErr = d.Err
	}
	if d.Err > c.Eps && c.FirstViolation == 0 {
		c.FirstViolation = round
	}
	c.Discrepancy = d // round n is always the last checkpoint
}
