package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// layerMetric is one per-layer metric: its unit and the end-to-end metric
// it should move, on which workload.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists the per-layer metrics in BENCHMARK.json's order.
var layerMetrics = []layerMetric{
	{"rng.fill_ns_per_elem", "ns/elem", "throughput_melem_s on serve and farm"},
	{"runtime.route_ns_per_elem", "ns/elem", "throughput_melem_s and op_p50_us on serve"},
	{"runtime.ring_ns_per_elem", "ns/elem", "throughput_melem_s on serve"},
	{"sampler.offer_batch_ns_per_elem", "ns/elem", "throughput_melem_s on serve and farm"},
	{"setsystem.apply_ns_per_elem", "ns/elem", "throughput_melem_s on serve"},
	{"shard.serial_ns_per_elem", "ns/elem", "throughput_melem_s on serve"},
	{"runtime.cpu_ns_per_elem", "ns/elem", "throughput_melem_s and op_p99_us on serve"},
	{"runtime.coordination_ns_per_elem", "ns/elem", "throughput_melem_s and op_p99_us on serve"},
	{"setsystem.verdict_us", "us", "query_p50_us on serve"},
	{"shard.verdict_wait_us", "us", "query_p50_us and query_p99_us on serve"},
	{"runtime.backlog_elems_p50", "elems", "query_p50_us on serve"},
	{"shard.flush_ms", "ms", "throughput_melem_s on serve"},
	{"farm.hot_ns_per_elem", "ns/elem", "throughput_melem_s on farm"},
	{"farm.hydrations_per_kelem", "1/kelem", "throughput_melem_s and op_p99_us on farm"},
	{"farm.evictions_per_kelem", "1/kelem", "throughput_melem_s and op_p99_us on farm"},
	{"farm.hydrate_us", "us", "op_p99_us on farm"},
	{"runtime.route_keys_ns_per_elem", "ns/elem", "throughput_melem_s on farm"},
	{"farm.query_idle_ms", "ms", "query_p50_us on farm"},
	{"farm.offer_overlap_p50_us", "us", "op_p99_us on farm"},
	{"slab.bytes_per_tenant", "B", "heap_mb on farm"},
	{"farm.allocs_per_kelem", "1/kelem", "op_p99_us on farm"},
	{"adversary.next_ns", "ns", "throughput_melem_s and op_p50_us on game"},
	{"sampler.offer_ns", "ns", "throughput_melem_s on game"},
	{"setsystem.point_update_ns", "ns", "throughput_melem_s on game"},
	{"setsystem.max_us", "us", "op_p50_us on game"},
	{"game.checkpoints_per_trial", "count", "op_p50_us on game"},
	{"game.allocs_per_round", "1/round", "throughput_melem_s on game"},
	{"core.worker_idle_share", "ratio", "throughput_melem_s on game"},
	{"trace.overhead_pct", "%", "none: traced minus untraced throughput of the chosen workload"},
}

// runTraced is --trace 1: an untraced and a traced pass of the chosen
// workload (their difference is the tracing overhead), traced passes of the
// other workloads, and the ladder. It returns every per-layer metric.
func runTraced(cfg config, rep *report, m machine) (map[string]metric, error) {
	base, err := runWorkload(cfg.workload, cfg, rep, 1, nil)
	if err != nil {
		return nil, err
	}
	base.print(rep, cfg.workload, "untraced")

	tr := newTracer()
	var (
		sv servePass
		fm farmPass
		gm gamePass
	)
	order := []string{cfg.workload}
	for _, w := range workloads {
		if w != cfg.workload {
			order = append(order, w)
		}
	}
	for _, w := range order {
		c := cfg
		if w != cfg.workload {
			// These passes feed only per-layer metrics, which have no
			// bound; a third of the run keeps trace mode well inside its
			// time limit.
			c.dur = cfg.dur / 3
		}
		switch w {
		case "serve":
			sv, err = runServe(c, rep, 1, tr)
		case "farm":
			fm, err = runFarm(c, rep, 1, tr)
		default:
			gm, err = runGame(c, rep, 1, tr)
		}
		if err != nil {
			return nil, err
		}
	}
	sv.print(rep, "serve", "traced")
	fm.print(rep, "farm", "traced")
	gm.print(rep, "game", "traced")
	traced := map[string]endToEnd{"serve": sv.endToEnd, "farm": fm.endToEnd, "game": gm.endToEnd}[cfg.workload]

	v, err := runLadder(cfg, rep)
	if err != nil {
		return nil, err
	}
	cpu := per(float64(sv.cpu.Nanoseconds()), sv.units)
	rungs := v["runtime.route_ns_per_elem"] + v["runtime.ring_ns_per_elem"] + v["setsystem.apply_ns_per_elem"]
	v["runtime.cpu_ns_per_elem"] = cpu
	v["runtime.coordination_ns_per_elem"] = cpu - rungs
	v["setsystem.verdict_us"] = sv.idleVerdict
	v["shard.verdict_wait_us"] = sv.query.p50 - sv.idleVerdict
	v["runtime.backlog_elems_p50"] = sv.backlog
	v["shard.flush_ms"] = float64(sv.flush.Nanoseconds()) / 1e6
	kelems := fm.units / 1e3
	v["farm.hydrations_per_kelem"] = per(float64(fm.hydrations), kelems)
	v["farm.evictions_per_kelem"] = per(float64(fm.evictions), kelems)
	v["farm.hydrate_us"] = fm.hydrate
	v["farm.query_idle_ms"] = fm.queryIdle
	v["farm.offer_overlap_p50_us"] = fm.overlapP50
	v["slab.bytes_per_tenant"] = fm.slotBytes
	v["farm.allocs_per_kelem"] = per(float64(fm.gc.mallocs), kelems)
	v["game.checkpoints_per_trial"] = float64(gm.checkpoints)
	v["game.allocs_per_round"] = per(float64(gm.gc.mallocs), gm.units)
	v["core.worker_idle_share"] = gm.idleShare
	v["trace.overhead_pct"] = 100 * (1 - per(traced.throughput(), base.throughput()))

	tr.print(rep)
	rep.printf("serve reconciliation: route %.2f + ring %.2f + apply %.2f = %.2f ns/elem (ladder); runtime.cpu_ns_per_elem %.2f (getrusage over the traced pass); runtime.coordination_ns_per_elem %.2f",
		v["runtime.route_ns_per_elem"], v["runtime.ring_ns_per_elem"], v["setsystem.apply_ns_per_elem"], rungs, cpu, cpu-rungs)
	rep.printf("tracing overhead on %s: throughput %.4f untraced, %.4f traced (%.2f%%); op_p50_us %.2f untraced, %.2f traced",
		cfg.workload, base.throughput(), traced.throughput(), v["trace.overhead_pct"], base.op.p50, traced.op.p50)

	out := map[string]metric{}
	for _, lm := range layerMetrics {
		x, ok := v[lm.name]
		rep.check(ok && !math.IsNaN(x) && !math.IsInf(x, 0), "per-layer metric %s was not measured", lm.name)
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		rep.printf("%-34s %14.4f %-8s moves %s", lm.name, x, lm.unit, lm.moves)
		out[lm.name] = metric{x, lm.unit}
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path, m); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.printf("spans written to %s", path)
	return out, nil
}
