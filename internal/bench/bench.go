// Package bench is the experiment harness that regenerates every
// quantitative claim of the paper as a table (the paper is theory-only, so
// its "tables and figures" are its theorems, corollaries, attack analyses
// and worked applications; DESIGN.md maps each to an experiment ID E1-E17
// and records the expected shapes).
//
// Each experiment is a pure function of a Config (root seed, trial count,
// scale knob) producing a Table; tables print with aligned columns and
// carry free-form notes stating the theoretical expectation next to the
// measurement. All randomness derives from the root seed, so tables are
// reproducible bit-for-bit.
package bench

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"robustsample/internal/core"
	"robustsample/internal/rng"
)

// Config controls an experiment run.
type Config struct {
	// Seed is the root RNG seed; every trial splits from it.
	Seed uint64
	// Trials is the number of independent game repetitions per row.
	Trials int
	// Scale multiplies stream lengths; 1.0 is the reference size used in
	// DESIGN.md, smaller values give quick smoke runs.
	Scale float64
	// Workers is the Monte-Carlo worker-pool size per table row: 0 (the
	// default) uses runtime.GOMAXPROCS, 1 forces serial execution. Tables
	// are byte-identical for every worker count — per-trial RNGs are
	// pre-split sequentially and results reduced in trial order.
	Workers int
	// Shards pins the shard count of the sharded experiment (E18): 0 (the
	// default) sweeps the reference ladder {1, 2, 4, 8}; any other value
	// sweeps {1, Shards}. Unlike Workers it selects a different measured
	// configuration, so different values legitimately change the E18
	// table (and only that table).
	Shards int
	// Producers selects the producer-lane counts of the concurrent serving
	// experiment (E19): nil or empty sweeps the reference ladder
	// {1, 2, 4, 8, 16, 32}; an explicit list measures exactly those points
	// in order. It affects only the E19 table and the ConcurrentIngest
	// JSON curve (one entry per point).
	Producers []int
	// Faults is an optional fault-plan spec (internal/faults.ParseSpec
	// syntax, e.g. "seed=1,crash=0.01,stall=0.005@2ms") for the
	// self-healing experiment E20: when set, its availability arm measures
	// that single plan instead of sweeping the default crash-rate ladder.
	// It affects only the E20 table.
	Faults string
	// Tenants pins the tenant count of the multi-tenant farm experiment
	// (E22): 0 (the default) sweeps the reference ladder {1e3, 1e5, 1e6}
	// (scaled by Scale); any other value measures that single point. It
	// affects only the E22 table and the FarmIngest JSON curve.
	Tenants int
	// TenantSkew is the Zipf exponent of E22's tenant id distribution;
	// 0 (the default) uses the reference skew 1.1.
	TenantSkew float64
}

// DefaultConfig is the reference configuration for the DESIGN.md tables.
func DefaultConfig() Config {
	return Config{Seed: 20200614, Trials: 40, Scale: 1.0}
}

// scaled returns max(lo, int(n*Scale)).
func (c Config) scaled(n, lo int) int {
	v := int(float64(n) * c.Scale)
	if v < lo {
		return lo
	}
	return v
}

// trials returns max(1, Trials).
func (c Config) trials() int {
	if c.Trials < 1 {
		return 1
	}
	return c.Trials
}

// forEachTrial runs fn(trial, r) for each trial on the configured worker
// pool, with per-trial RNGs pre-split sequentially from root
// (core.ForEachSplitTrial) so the results are identical to the historical
// serial loop `r := root.Split(); fn(...)`. fn must write its outputs to
// per-trial storage; callers reduce in trial order afterwards.
func (c Config) forEachTrial(root *rng.RNG, fn func(trial int, r *rng.RNG)) {
	core.ForEachSplitTrial(c.trials(), c.Workers, root, func(_, trial int, r *rng.RNG) {
		fn(trial, r)
	})
}

// must unwraps constructor (value, error) pairs whose parameters are
// statically valid in experiment code; validation errors there are bugs.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// countTrue returns the number of set flags; trial loops record per-trial
// outcomes in indexed slices and reduce with it after the parallel fan-out.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (E1..E17).
	ID string
	// Title describes the experiment.
	Title string
	// Source cites the paper claim being reproduced.
	Source string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes state the expected shape and any caveats.
	Notes []string
}

// AddRow appends a formatted row; values are rendered with %v except
// float64, which uses %.4g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   source: %s\n", t.Source)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment couples an ID with its runner.
type Experiment struct {
	// ID is the DESIGN.md identifier.
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment.
	Run func(cfg Config) *Table
}

// All returns every experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Theorem 1.2: Bernoulli sampling is (eps,delta)-robust at the prescribed rate", ExpE1},
		{"E2", "Theorem 1.2: reservoir sampling is (eps,delta)-robust at the prescribed size", ExpE2},
		{"E3", "Theorem 1.3 / Section 5: bisection attack on Bernoulli sampling", ExpE3},
		{"E4", "Theorem 1.3 / Section 5: bisection attack on reservoir sampling", ExpE4},
		{"E5", "Theorem 1.4: continuous robustness of reservoir sampling", ExpE5},
		{"E6", "Corollary 1.5: robust quantile sketches vs GK and KLL", ExpE6},
		{"E7", "Corollary 1.6: heavy hitters under adaptive inflation", ExpE7},
		{"E8", "Section 1.2: range queries over [m]^d grids", ExpE8},
		{"E9", "Section 1.2: beta-center points from robust samples", ExpE9},
		{"E10", "Section 1: the introduction's median attack", ExpE10},
		{"E11", "Section 1.1: static-vs-adaptive sample-size gap and crossover", ExpE11},
		{"E12", "Section 1.2: distributed query routing under adaptive clients", ExpE12},
		{"E13", "Section 1.2: clustering acceleration via robust sampling", ExpE13},
		{"E14", "Section 1.1: deterministic merge-reduce vs randomized sampling", ExpE14},
		{"E15", "Section 4: martingale structure and Freedman-bound tightness", ExpE15},
		{"E16", "Section 1.3: weighted reservoir sampling extension", ExpE16},
		{"E17", "Ablation: reservoir variants (Algorithm R / Algorithm L / with-replacement)", ExpE17},
		{"E18", "Section 1.3: sharded continuous sampling with mergeable verdicts", ExpE18},
		{"E19", "Concurrent serving runtime: pipeline determinism and throughput vs producers", ExpE19},
		{"E20", "Self-healing serving: crash recovery and degraded-read availability under injected faults", ExpE20},
		{"E21", "Sketch-switching ([BJWY20]) raced against oversampling and a naive static baseline", ExpE21},
		{"E22", "Multi-tenant sketch farm: tenant density, keyed ingest throughput and hydration stalls", ExpE22},
	}
	slices.SortFunc(exps, func(a, b Experiment) int {
		return cmp.Compare(expOrder(a.ID), expOrder(b.ID))
	})
	return exps
}

func expOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment and renders the tables to w.
func RunAll(cfg Config, w io.Writer) {
	for _, e := range All() {
		e.Run(cfg).Render(w)
	}
}
