// Command robustbench runs the experiment harness reproducing every
// quantitative claim of "The Adversarial Robustness of Sampling"
// (Ben-Eliezer & Yogev, PODS 2020). Each experiment prints one table;
// DESIGN.md indexes the experiments and records the expected shape of each.
//
// Monte-Carlo trials fan out across a worker pool (-workers, default all
// CPUs); tables are byte-identical for every worker count, so -workers only
// changes wall-clock time. Non-adaptive games ingest their streams in
// batches (-chunk elements per batch); batch ingestion is chunking-
// invariant, so -chunk also only changes wall-clock time. The sharded
// experiment E18 sweeps its shard count with -shards; unlike -workers and
// -chunk this selects a different measured configuration (per-shard
// samplers draw their own RNG streams), so it changes the E18 table — and
// only that one.
//
// Usage:
//
//	robustbench -all                 # run every experiment at full scale
//	robustbench -exp E3              # run a single experiment
//	robustbench -exp E5,E19          # run several experiments
//	robustbench -list                # list experiment IDs and titles
//	robustbench -exp E1 -trials 100 -scale 0.5 -seed 7 -workers 4
//	robustbench -exp E18 -shards 16  # sharded engine at S=16
//	robustbench -exp E19 -producers 1,2,4,8,16,32  # serving scaling curve
//	robustbench -exp E20 -faults "seed=1,crash=0.01"  # self-healing chaos run
//	robustbench -exp E21             # sketch-switching vs oversampling race
//	robustbench -exp E22 -tenants 1000000 -tenantskew 1.2  # farm at one point
//	robustbench -fig F1              # ASCII error-trajectory figures
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"robustsample/internal/bench"
	"robustsample/internal/game"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		exp        = flag.String("exp", "", "run one or more experiments by ID, comma-separated (E1..E22)")
		fig        = flag.String("fig", "", "render a figure by ID (F1, F2)")
		list       = flag.Bool("list", false, "list experiments and exit")
		seed       = flag.Uint64("seed", bench.DefaultConfig().Seed, "root RNG seed")
		trials     = flag.Int("trials", bench.DefaultConfig().Trials, "trials per table row")
		scale      = flag.Float64("scale", bench.DefaultConfig().Scale, "stream-length scale factor")
		workers    = flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = all CPUs, 1 = serial)")
		chunk      = flag.Int("chunk", game.SpanChunkCap, "batch-ingest chunk size for non-adaptive games, at least 1 (tables are identical for every value)")
		shards     = flag.Int("shards", 0, "shard count for the sharded experiment E18 (0 = sweep 1/2/4/8)")
		producers  = flag.String("producers", "", "comma-separated producer-lane counts for the concurrent serving experiment E19, one measured point each (empty = sweep 1,2,4,8,16,32)")
		faultSpec  = flag.String("faults", "", "fault-plan spec for the self-healing experiment E20, e.g. \"seed=1,crash=0.01,stall=0.005@2ms,corrupt=0.005\" (empty = sweep the default crash-rate ladder)")
		tenants    = flag.Int("tenants", 0, "tenant count for the multi-tenant farm experiment E22 (0 = sweep the 1e3/1e5/1e6 ladder)")
		tenantSkew = flag.Float64("tenantskew", 0, "Zipf exponent of E22's tenant id distribution (0 = reference skew 1.1)")
		jsonPath   = flag.String("json", "", "also emit machine-readable benchmark measurements (name, ns/op, allocs/op, params) for the selected experiments to this file (\"-\" = stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if err := checkChunk(*chunk); err != nil {
		fmt.Fprintf(os.Stderr, "robustbench: -chunk: %v\n", err)
		os.Exit(2)
	}
	game.SpanChunkCap = *chunk
	lanes, err := parseIntList(*producers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "robustbench: -producers: %v\n", err)
		os.Exit(2)
	}
	cfg := bench.Config{Seed: *seed, Trials: *trials, Scale: *scale, Workers: *workers, Shards: *shards, Producers: lanes, Faults: *faultSpec, Tenants: *tenants, TenantSkew: *tenantSkew}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		for _, f := range bench.Figures() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
	case *fig != "":
		f, ok := bench.FigureByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "robustbench: unknown figure %q (try -list)\n", *fig)
			os.Exit(2)
		}
		f.Render(cfg).Render(os.Stdout)
	case *all:
		bench.RunAll(cfg, os.Stdout)
		emitJSON(*jsonPath, cfg, bench.All(), *chunk)
	case *exp != "":
		var exps []bench.Experiment
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "robustbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
		for _, e := range exps {
			e.Run(cfg).Render(os.Stdout)
		}
		emitJSON(*jsonPath, cfg, exps, *chunk)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseIntList parses a comma-separated list of positive integers; an
// empty string yields nil (the default sweep).
func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("count %d out of range", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkChunk rejects a -chunk below 1. The games would clamp such a value,
// so the -json records, which carry the flag, would name a chunk the games
// did not run at.
func checkChunk(chunk int) error {
	if chunk < 1 {
		return fmt.Errorf("chunk %d out of range", chunk)
	}
	return nil
}

// emitJSON measures the selected experiments once more under cfg and
// writes the machine-readable results to path; the perf trajectory files
// (BENCH_*.json) are produced this way. When the selection includes the
// concurrent serving experiment E19, the throughput-vs-producers scaling
// curve (one ConcurrentIngest entry per lane count) is appended; when it
// includes the self-healing experiment E20, the checkpoint-overhead curve
// (ConcurrentIngestCkpt, same sweep with crash supervision on) is appended
// too; when it includes the farm experiment E22, the tenant-scaling curve
// (one FarmIngest entry per tenant count) is appended as well. A no-op when
// path is empty.
func emitJSON(path string, cfg bench.Config, exps []bench.Experiment, chunk int) {
	if path == "" {
		return
	}
	results := bench.Measure(cfg, exps, chunk)
	for _, e := range exps {
		if e.ID == "E19" {
			results = append(results, bench.MeasureConcurrentIngest(cfg)...)
			break
		}
	}
	for _, e := range exps {
		if e.ID == "E20" {
			results = append(results, bench.MeasureConcurrentIngestCkpt(cfg)...)
			break
		}
	}
	for _, e := range exps {
		if e.ID == "E22" {
			results = append(results, bench.MeasureFarm(cfg)...)
			break
		}
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteJSON(out, results); err != nil {
		fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
		os.Exit(1)
	}
}
