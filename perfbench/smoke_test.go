package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the smoke test runs in seconds.
var tinySizes = sizes{
	serveStream: 1 << 14,
	serveWarm:   1 << 12,
	tenants:     4096,
	farmStream:  1 << 13,
	gameN:       2000,
	probes:      2,
}

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkResult fails unless res passed every check and reports exactly the
// metrics want names, each with its unit.
func checkResult(t *testing.T, what string, res result, want []struct{ Name, Unit string }, out []byte) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", what, res.Correct, res.Attempted, res.Failed, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok || m.Unit != w.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", what, w.Name, m, w.Unit)
		}
	}
}

// TestSmoke runs the three workloads and the traced mode at a tiny scale.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	cfg := config{seed: 3, dur: 300 * time.Millisecond, sizes: tinySizes, traceDir: t.TempDir()}
	for _, w := range workloads {
		cfg.workload = w
		var out bytes.Buffer
		res, err := run(cfg, false, &out)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkResult(t, w, res, spec.EndToEnd, out.Bytes())
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
	}

	cfg.workload = "game"
	var out bytes.Buffer
	res, err := run(cfg, true, &out)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	checkResult(t, "traced", res, spec.PerLayer, out.Bytes())
	if len(layerMetrics) != len(spec.PerLayer) {
		t.Fatalf("layerMetrics lists %d metrics, BENCHMARK.json %d", len(layerMetrics), len(spec.PerLayer))
	}
	for i, lm := range layerMetrics {
		if lm.name != spec.PerLayer[i].Name || lm.unit != spec.PerLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s (%s) here, %s (%s) in BENCHMARK.json", i, lm.name, lm.unit, spec.PerLayer[i].Name, spec.PerLayer[i].Unit)
		}
	}
	if fi, err := os.Stat(filepath.Join(cfg.traceDir, "game-seed3.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("serve reconciliation:")) {
		t.Errorf("traced output lacks the serve reconciliation line:\n%s", out.Bytes())
	}
}

// TestTailQuantile pins the tail rule: ten samples must lie beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {39, 0.5}, {40, 0.75}, {50, 0.8}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestSpans checks parent links and self time of nested spans.
func TestSpans(t *testing.T) {
	tr := newTracer()
	l := tr.lane("x/main")
	l.begin("outer", 7)
	l.begin("inner", 7)
	time.Sleep(time.Millisecond)
	l.end()
	l.end()
	if len(l.spans) != 2 || l.spans[0].Name != "inner" || l.spans[0].Parent != l.spans[1].ID || l.spans[1].Parent != 0 {
		t.Fatalf("spans = %+v", l.spans)
	}
	inner, outer := l.totals["inner"], l.totals["outer"]
	if inner.self != inner.total || outer.self != outer.total-inner.total {
		t.Errorf("self times: inner %+v outer %+v", inner, outer)
	}
	var nilLane *lane
	nilLane.begin("ignored", 0)
	nilLane.end()
}
