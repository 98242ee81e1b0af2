package bench

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

// quickCfg is a small configuration for smoke-testing every experiment.
func quickCfg() Config {
	return Config{Seed: 7, Trials: 3, Scale: 0.05}
}

func TestAllExperimentsPresent(t *testing.T) {
	exps := All()
	if len(exps) != 22 {
		t.Fatalf("have %d experiments, want 22", len(exps))
	}
	for i, e := range exps {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E3"); !ok {
		t.Fatal("E3 not found")
	}
	if _, ok := ByID("e3"); !ok {
		t.Fatal("lookup should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestEveryExperimentRunsAndRenders(t *testing.T) {
	cfg := quickCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(cfg)
			if tab.ID != e.ID {
				t.Fatalf("table ID %s, want %s", tab.ID, e.ID)
			}
			if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s row width %d != %d columns", e.ID, len(row), len(tab.Columns))
				}
			}
			if tab.Source == "" {
				t.Fatalf("%s missing paper source", e.ID)
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			out := buf.String()
			if !strings.Contains(out, e.ID+":") {
				t.Fatalf("%s render missing header: %q", e.ID, out[:60])
			}
			for _, col := range tab.Columns {
				if !strings.Contains(out, col) {
					t.Fatalf("%s render missing column %q", e.ID, col)
				}
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	cfg := quickCfg()
	for _, id := range []string{"E1", "E3", "E12"} {
		e, _ := ByID(id)
		var a, b bytes.Buffer
		e.Run(cfg).Render(&a)
		e.Run(cfg).Render(&b)
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic under fixed seed", id)
		}
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	RunAll(quickCfg(), &buf)
	out := buf.String()
	for i := 1; i <= 18; i++ {
		if !strings.Contains(out, "E"+strconv.Itoa(i)+":") {
			t.Fatalf("RunAll output missing E%d", i)
		}
	}
}

func TestTableAddRowFormatting(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b", "c"}}
	tab.AddRow(1.23456789, "x", 42)
	if tab.Rows[0][0] != "1.235" {
		t.Fatalf("float formatting: %q", tab.Rows[0][0])
	}
	if tab.Rows[0][1] != "x" || tab.Rows[0][2] != "42" {
		t.Fatalf("row: %v", tab.Rows[0])
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Scale: 0.001, Trials: 0}
	if cfg.scaled(1000, 50) != 50 {
		t.Fatal("scaled floor not applied")
	}
	if cfg.trials() != 1 {
		t.Fatal("trials floor not applied")
	}
	cfg = Config{Scale: 2, Trials: 7}
	if cfg.scaled(100, 1) != 200 {
		t.Fatal("scaling wrong")
	}
	if cfg.trials() != 7 {
		t.Fatal("trials wrong")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Trials < 10 || cfg.Scale != 1.0 {
		t.Fatalf("unexpected default config: %+v", cfg)
	}
}

func TestFiguresRender(t *testing.T) {
	cfg := quickCfg()
	if len(Figures()) != 2 {
		t.Fatalf("have %d figures, want 2", len(Figures()))
	}
	for _, f := range Figures() {
		chart := f.Render(cfg)
		var buf bytes.Buffer
		chart.Render(&buf)
		if !strings.Contains(buf.String(), f.ID+":") {
			t.Fatalf("%s render missing title", f.ID)
		}
		if !strings.Contains(buf.String(), "legend") {
			t.Fatalf("%s render missing legend", f.ID)
		}
	}
	if _, ok := FigureByID("F1"); !ok {
		t.Fatal("F1 lookup failed")
	}
	if _, ok := FigureByID("F9"); ok {
		t.Fatal("F9 should not exist")
	}
}

// One benchmark per experiment in DESIGN.md's index (E1-E18), each
// regenerating the corresponding table at a reduced scale per iteration.
// Run the full-scale tables with
//
//	go run ./cmd/robustbench -all
//
// and individual ones with -exp E<n>.

func runExp(b *testing.B, id string) {
	exp, ok := ByID(id)
	if !ok {
		b.Fatalf("experiment %s not found", id)
	}
	cfg := Config{Seed: 1, Trials: 2, Scale: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		exp.Run(cfg).Render(io.Discard)
	}
}

func BenchmarkExpE1BernoulliRobustness(b *testing.B)   { runExp(b, "E1") }
func BenchmarkExpE2ReservoirRobustness(b *testing.B)   { runExp(b, "E2") }
func BenchmarkExpE3BernoulliAttack(b *testing.B)       { runExp(b, "E3") }
func BenchmarkExpE4ReservoirAttack(b *testing.B)       { runExp(b, "E4") }
func BenchmarkExpE5ContinuousRobustness(b *testing.B)  { runExp(b, "E5") }
func BenchmarkExpE6QuantileSketches(b *testing.B)      { runExp(b, "E6") }
func BenchmarkExpE7HeavyHitters(b *testing.B)          { runExp(b, "E7") }
func BenchmarkExpE8RangeQueries(b *testing.B)          { runExp(b, "E8") }
func BenchmarkExpE9CenterPoints(b *testing.B)          { runExp(b, "E9") }
func BenchmarkExpE10MedianAttack(b *testing.B)         { runExp(b, "E10") }
func BenchmarkExpE11StaticAdaptiveGap(b *testing.B)    { runExp(b, "E11") }
func BenchmarkExpE12DistributedRouting(b *testing.B)   { runExp(b, "E12") }
func BenchmarkExpE13ClusteringPipeline(b *testing.B)   { runExp(b, "E13") }
func BenchmarkExpE14DeterministicCompare(b *testing.B) { runExp(b, "E14") }
func BenchmarkExpE15MartingaleStructure(b *testing.B)  { runExp(b, "E15") }
func BenchmarkExpE16WeightedReservoir(b *testing.B)    { runExp(b, "E16") }
func BenchmarkExpE17ReservoirAblation(b *testing.B)    { runExp(b, "E17") }
func BenchmarkExpE18ShardedSampling(b *testing.B)      { runExp(b, "E18") }
