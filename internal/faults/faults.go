// Package faults is the deterministic fault-injection plan behind the
// serving runtime's chaos testing: a seeded schedule of consumer crashes,
// stalls, apply delays and corrupt (poisoned) batches, injected through the
// supervision hooks of internal/runtime.Pipeline.
//
// Determinism contract: every decision is a pure function of (shard,
// per-shard apply ordinal, attempt) and the plan's seed. Each shard draws
// from a private RNG stream split sequentially from the seed, so the fault
// schedule of one shard never depends on how the scheduler interleaved the
// others, and a re-run with the same seed injects the same faults at the
// same per-shard apply ordinals. (Which stream elements sit in the k-th
// chunk of a shard still depends on live-mode timing; what the plan
// guarantees is that the decisions themselves replay — and the recovery
// contract proved by the chaos tests is independent of where a crash
// lands.)
//
// Retries draw no fresh faults: after the supervisor restores a shard and
// re-applies the failing chunk, Decide reports None for attempt > 0 — a
// crash is transient — except for HardCorrupt, which repeats until the
// supervisor gives up and drops the chunk (the poison-pill model).
package faults

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"robustsample/internal/rng"
)

// Op is one injected fault kind.
type Op uint8

const (
	// None injects nothing.
	None Op = iota
	// Crash panics before the apply — a consumer crash. The supervisor
	// recovers it, restores the shard from its latest checkpoint and
	// retries the chunk.
	Crash
	// Stall sleeps Spec.StallFor before the apply while holding the shard
	// lock — a stuck consumer. Rings back up behind it until producers hit
	// backpressure (the ring-full starvation scenario), and queries must
	// degrade around the locked shard.
	Stall
	// Delay sleeps Spec.DelayFor before the apply — a slow consumer, long
	// enough to perturb timing but not to wedge anything.
	Delay
	// Corrupt overwrites the chunk with Poison values — a corrupt batch.
	// The apply-side validation gate panics on it; the supervisor restores
	// the shard and retries the pristine chunk, which then applies cleanly.
	Corrupt
	// HardCorrupt is Corrupt on every retry: the chunk can never apply and
	// is eventually dropped by the supervisor, the bounded-loss path.
	HardCorrupt

	numOps
)

func (o Op) String() string {
	switch o {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case HardCorrupt:
		return "hard-corrupt"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Poison is the sentinel value Corrupt faults write over a chunk. It is far
// outside every universe the engines accept (universe points are >= 1), so
// a poisoned batch that slipped past validation would be unambiguous in any
// state dump.
const Poison int64 = math.MinInt64

// ErrInjectedCrash is the panic value of a Crash fault.
var ErrInjectedCrash = errors.New("faults: injected consumer crash")

// ErrPoisonedBatch is the panic value the apply-side validation gate raises
// on a poisoned chunk.
var ErrPoisonedBatch = errors.New("faults: poisoned batch failed validation")

// Spec configures a Plan. Probabilities are per apply (per chunk, not per
// element) and are evaluated in the order crash, stall, delay, corrupt,
// hard-corrupt from a single uniform draw, so their sum must stay <= 1.
type Spec struct {
	// Seed roots the per-shard decision streams.
	Seed uint64
	// CrashProb is the per-apply probability of a consumer crash.
	CrashProb float64
	// StallProb is the per-apply probability of a StallFor stall.
	StallProb float64
	// StallFor is the stall duration; <= 0 selects 20ms.
	StallFor time.Duration
	// DelayProb is the per-apply probability of a DelayFor delay.
	DelayProb float64
	// DelayFor is the delay duration; <= 0 selects 200us.
	DelayFor time.Duration
	// CorruptProb is the per-apply probability of a (recoverable) corrupt
	// batch.
	CorruptProb float64
	// HardCorruptProb is the per-apply probability of an unrecoverable
	// poison-pill batch.
	HardCorruptProb float64
	// CrashOrdinals schedules deterministic crashes: CrashOrdinals[s] lists
	// the 1-based apply ordinals of shard s that crash, in increasing
	// order. Scheduled crashes fire regardless of the probabilistic draws
	// and of MaxPerShard — they are how tests guarantee "every shard
	// crashes at least once".
	CrashOrdinals [][]uint64
	// MaxPerShard caps the probabilistic faults injected per shard
	// (scheduled crashes are exempt); 0 means unlimited.
	MaxPerShard int
}

func (s Spec) validate() error {
	probs := [...]struct {
		name string
		p    float64
	}{
		{"crash", s.CrashProb}, {"stall", s.StallProb}, {"delay", s.DelayProb},
		{"corrupt", s.CorruptProb}, {"hard", s.HardCorruptProb},
	}
	sum := 0.0
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 || pr.p != pr.p {
			return fmt.Errorf("faults: %s probability %v outside [0, 1]", pr.name, pr.p)
		}
		sum += pr.p
	}
	if sum > 1 {
		return fmt.Errorf("faults: fault probabilities sum to %v > 1", sum)
	}
	return nil
}

// ParseSpec parses the CLI fault-plan syntax: a comma-separated list of
// key=value clauses, durations attached to rates with '@'.
//
//	seed=42,crash=0.01,stall=0.005@20ms,delay=0.1@200us,corrupt=0.01,hard=0.001,max=3
//
// Every clause is optional; an empty string is a plan that injects nothing.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{}
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		rate, dur, hasDur := strings.Cut(val, "@")
		prob := func() (float64, error) { return strconv.ParseFloat(rate, 64) }
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "max":
			spec.MaxPerShard, err = strconv.Atoi(val)
		case "crash":
			spec.CrashProb, err = prob()
		case "stall":
			spec.StallProb, err = prob()
			if err == nil && hasDur {
				spec.StallFor, err = time.ParseDuration(dur)
			}
		case "delay":
			spec.DelayProb, err = prob()
			if err == nil && hasDur {
				spec.DelayFor, err = time.ParseDuration(dur)
			}
		case "corrupt":
			spec.CorruptProb, err = prob()
		case "hard":
			spec.HardCorruptProb, err = prob()
		default:
			return Spec{}, fmt.Errorf("faults: unknown clause key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faults: clause %q: %v", clause, err)
		}
	}
	if err := spec.validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Decision is one injection verdict.
type Decision struct {
	Op Op
	// Sleep is the stall/delay duration when Op is Stall or Delay.
	Sleep time.Duration
}

// lane is one shard's decision state. Decide is only ever called under that
// shard's lock (it runs inside the supervisor's apply path), so the plain
// fields need no atomics; the ordinal and injection counters are atomic so
// observers can read progress without the lock.
type lane struct {
	r        *rng.RNG
	ord      atomic.Uint64 // 1-based apply ordinal, bumped on attempt 0
	injected atomic.Uint64 // probabilistic faults injected so far
	crashIdx int           // cursor into Spec.CrashOrdinals[shard]
	hard     bool          // current chunk drew HardCorrupt; repeats on retries
}

// Plan is a running fault plan over a fixed shard count. Decide is safe for
// concurrent use across shards (per-shard state only); within one shard the
// pipeline's shard lock serializes it.
type Plan struct {
	spec   Spec
	lanes  []*lane
	counts [numOps]atomic.Uint64
}

// NewPlan builds a plan for the given shard count.
func NewPlan(spec Spec, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("faults: need at least 1 shard, got %d", shards)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.StallFor <= 0 {
		spec.StallFor = 20 * time.Millisecond
	}
	if spec.DelayFor <= 0 {
		spec.DelayFor = 200 * time.Microsecond
	}
	root := rng.New(spec.Seed)
	p := &Plan{spec: spec, lanes: make([]*lane, shards)}
	for i := range p.lanes {
		p.lanes[i] = &lane{r: root.Split()}
	}
	return p, nil
}

// MustPlan is NewPlan for statically valid specs in tests and experiments.
func MustPlan(spec Spec, shards int) *Plan {
	p, err := NewPlan(spec, shards)
	if err != nil {
		panic(err)
	}
	return p
}

// Decide returns the fault injected before apply attempt `attempt` of the
// next chunk on `shard`. Attempt 0 advances the shard's ordinal and draws;
// retries (attempt > 0) inject nothing except a repeating HardCorrupt.
func (p *Plan) Decide(shard, attempt int) Decision {
	l := p.lanes[shard]
	if attempt > 0 {
		if l.hard {
			p.counts[HardCorrupt].Add(1)
			return Decision{Op: HardCorrupt}
		}
		return Decision{}
	}
	l.hard = false
	ord := l.ord.Add(1)
	if s := p.spec.CrashOrdinals; shard < len(s) {
		for l.crashIdx < len(s[shard]) && s[shard][l.crashIdx] < ord {
			l.crashIdx++ // skip stale entries (unsorted or duplicate ordinals)
		}
		if l.crashIdx < len(s[shard]) && s[shard][l.crashIdx] == ord {
			l.crashIdx++
			p.counts[Crash].Add(1)
			return Decision{Op: Crash}
		}
	}
	sp := p.spec
	if sp.CrashProb == 0 && sp.StallProb == 0 && sp.DelayProb == 0 &&
		sp.CorruptProb == 0 && sp.HardCorruptProb == 0 {
		return Decision{}
	}
	// One uniform draw per ordinal keeps the per-shard decision stream
	// aligned no matter which fault kinds are enabled.
	u := l.r.Float64()
	if sp.MaxPerShard > 0 && l.injected.Load() >= uint64(sp.MaxPerShard) {
		return Decision{}
	}
	d := Decision{}
	switch {
	case u < sp.CrashProb:
		d = Decision{Op: Crash}
	case u < sp.CrashProb+sp.StallProb:
		d = Decision{Op: Stall, Sleep: sp.StallFor}
	case u < sp.CrashProb+sp.StallProb+sp.DelayProb:
		d = Decision{Op: Delay, Sleep: sp.DelayFor}
	case u < sp.CrashProb+sp.StallProb+sp.DelayProb+sp.CorruptProb:
		d = Decision{Op: Corrupt}
	case u < sp.CrashProb+sp.StallProb+sp.DelayProb+sp.CorruptProb+sp.HardCorruptProb:
		d = Decision{Op: HardCorrupt}
		l.hard = true
	default:
		return Decision{}
	}
	l.injected.Add(1)
	p.counts[d.Op].Add(1)
	return d
}

// Count returns how many faults of kind op the plan has injected.
//
//robust:root internal/shard's chaos tests read the injection counts
func (p *Plan) Count(op Op) uint64 {
	if op >= numOps {
		return 0
	}
	return p.counts[op].Load()
}

// Shards returns the shard count the plan was built for.
func (p *Plan) Shards() int { return len(p.lanes) }

// PoisonChunk overwrites xs with Poison values, the Corrupt fault's action.
func PoisonChunk(xs []int64) {
	for i := range xs {
		xs[i] = Poison
	}
}

// Poisoned reports whether xs contains a Poison value — the validation gate
// the serving layer runs before applying a chunk when fault injection is
// active.
func Poisoned(xs []int64) bool {
	for _, x := range xs {
		if x == Poison {
			return true
		}
	}
	return false
}
