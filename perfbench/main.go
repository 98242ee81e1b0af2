// Command perfbench is the repository's end-to-end benchmark. It builds
// three closed-loop workloads from a seed, drives them against the public
// serving surfaces and the adaptive game, and checks their outputs:
//
//   - serve: one producer saturates shard.Producer.OfferBatch while a
//     monitor polls Serving.Verdict — Section 1.3's sharded serving with
//     [CTW16]-merged verdicts;
//   - farm: one producer sends Zipf-keyed batches to a 10^4-tenant farm
//     whose hot budget is 1/8 of the population while a monitor runs
//     GlobalQuantile — the per-key samplers of Section 1.2's applications;
//   - game: continuous median-pusher games (Figure 2) against a reservoir
//     of the Theorem 1.2 size, spread over two workers — the game every
//     experiment table plays.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the workload with tracing off and prints the
// end-to-end metrics. With --trace 1 it prints the per-layer metrics: it
// runs the chosen workload untraced and traced (the difference is the
// tracing overhead), runs a traced pass of the other workloads too (for a
// third of --seconds) with a span around each call into a layer, and
// replays each workload's inputs
// through each layer's exported function alone (the ladder). Every line but
// the last starts with "#"; the last line is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Load generator rules: every generator is a closed loop inside this
// process with at most two goroutines; latency is timed from call to
// return; inputs are generated before timing starts; think time only
// spaces calls and is never inside a measured latency; a tail percentile
// is reported only where the run holds at least ten samples beyond it.
//
// The host's speed swings for seconds at a time (CPU steal, neighbours'
// memory traffic), so serve and farm throughput is the median over thirty
// equal windows of the timed phase (one second each at --seconds 30; a
// game's trials are too long for windows, so it uses the whole phase) and
// a latency quantile is the median over consecutive parts of the run's
// calls wherever each part holds 1000 calls (see summarize). The printout
// lists the windows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"robustsample/internal/rng"
)

// workloads lists the workload names in the order trace mode runs them.
var workloads = []string{"serve", "farm", "game"}

// sizes are the workloads' input sizes; the smoke test shrinks them.
type sizes struct {
	serveStream int // elements the serve producer cycles through
	serveWarm   int // serial warm-up that fills every reservoir before Serve
	tenants     int // farm population
	farmStream  int // keyed (tenant, element) pairs the farm producer cycles through
	gameN       int // rounds per game
	probes      int // repetitions of each idle probe and ladder rung
}

var fullSizes = sizes{
	serveStream: 1 << 20,
	serveWarm:   1 << 14,
	tenants:     10_000,
	farmStream:  1 << 20,
	gameN:       20_000,
	probes:      5,
}

// RNG streams split from the seed, one per input.
const (
	streamServeWarm = iota + 1
	streamServe
	streamFarmPopulate
	streamFarm
	streamGame
	streamLadder
)

// uniform draws n values of [1, universe].
func uniform(r *rng.RNG, n int, universe int64) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = 1 + r.Int63n(universe)
	}
	return xs
}

// setups is how many times a measured run sets its workload up; setup_s is
// the median. Traced passes set up once.
var setups = map[string]int{"serve": 7, "farm": 15, "game": 15}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration // length of each measured phase
	sizes    sizes
	traceDir string // where the traced run writes its spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report counts the operations a run attempted and the ones that failed —
// an error return or a failed output check — and prints the lines that
// precede the result.
type report struct {
	w         io.Writer
	attempted int
	failed    int
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

// check counts one checked operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.printf("FAILED "+format, args...)
	}
}

// op counts one operation that failed when err is non-nil.
func (r *report) op(err error, what string) {
	r.check(err == nil, "%s: %v", what, err)
}

// add folds a load generator's tally into the report.
func (r *report) add(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.first != "" {
		r.printf("FAILED %s (%d failures)", t.first, t.failed)
	}
}

// tally is one load-generator goroutine's count of attempted and failed
// operations, folded into the report once the goroutine has ended.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if t.first == "" {
			t.first = fmt.Sprintf(format, args...)
		}
	}
}

// machine records where a result was measured.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       uint64  `json:"seed"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func machineOf(cfg config, traced bool) machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seed:       cfg.seed,
		Workload:   cfg.workload,
		Seconds:    cfg.dur.Seconds(),
		Trace:      traced,
	}
}

// cpuModel reads the CPU model name on Linux and falls back to GOARCH.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// run executes one invocation and returns its result.
func run(cfg config, traced bool, w io.Writer) (result, error) {
	rep := &report{w: w}
	m := machineOf(cfg, traced)
	mb, err := json.Marshal(m)
	if err != nil {
		return result{}, err
	}
	rep.printf("machine %s", mb)
	var metrics map[string]metric
	if traced {
		metrics, err = runTraced(cfg, rep, m)
	} else {
		var e endToEnd
		e, err = runWorkload(cfg.workload, cfg, rep, setups[cfg.workload], nil)
		if err == nil {
			e.print(rep, cfg.workload, "untraced")
			metrics = e.metrics()
		}
	}
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}, nil
}

// runWorkload runs one pass of a workload, traced when tr is non-nil.
func runWorkload(name string, cfg config, rep *report, nsetup int, tr *tracer) (endToEnd, error) {
	switch name {
	case "serve":
		p, err := runServe(cfg, rep, nsetup, tr)
		return p.endToEnd, err
	case "farm":
		p, err := runFarm(cfg, rep, nsetup, tr)
		return p.endToEnd, err
	default:
		p, err := runGame(cfg, rep, nsetup, tr)
		return p.endToEnd, err
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve, farm or game")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of each measured phase, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run and the ladder")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve|farm|game --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		sizes:    fullSizes,
		traceDir: *traceDir,
	}
	res, err := run(cfg, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
