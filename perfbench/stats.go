package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// interval is one timed call: its start within the timed phase and its
// duration.
type interval struct{ start, dur time.Duration }

// latencies summarizes call-to-return times of one kind of operation.
type latencies struct {
	what  string  // the call timed, for the printout
	n     int     // samples
	parts int     // consecutive parts the quantiles are the median over
	p50   float64 // µs
	tail  float64 // µs, at quantile tailQ
	tailQ float64
}

// tailQuantiles are the tails a pooled summary may report, highest first.
var tailQuantiles = []float64{0.99, 0.95, 0.9, 0.8, 0.75}

// maxParts bounds how many consecutive parts a run's samples are split
// into. Throughput and, where every part holds enough samples, latency
// quantiles are the median over the parts, so seconds of host interference
// (CPU steal, a noisy neighbour's memory traffic) move the figures little.
const maxParts = 30

// minPart is the fewest samples a part needs for its p99 to leave ten
// samples beyond it.
const minPart = 1000

// summarize takes the median and a tail of the call times ivs, in call
// order. With at least 2·minPart samples it splits them into up to maxParts
// consecutive equal parts of at least minPart and reports the median over
// the parts of their p50 and p99. Otherwise it pools them and reports the
// highest of tailQuantiles with at least ten samples beyond it (the median
// when none has); the fixed list keeps the quantile the same across runs.
func summarize(what string, ivs []interval) latencies {
	parts := min(maxParts, len(ivs)/minPart)
	if parts < 2 {
		us := micros(ivs)
		slices.Sort(us)
		l := latencies{what: what, n: len(us), parts: 1, tailQ: tailQuantile(len(us))}
		l.p50 = quantile(us, 0.5)
		l.tail = quantile(us, l.tailQ)
		return l
	}
	l := latencies{what: what, n: len(ivs), parts: parts, tailQ: 0.99}
	p50s := make([]float64, parts)
	tails := make([]float64, parts)
	for i := range p50s {
		us := micros(ivs[i*len(ivs)/parts : (i+1)*len(ivs)/parts])
		slices.Sort(us)
		p50s[i] = quantile(us, 0.5)
		tails[i] = quantile(us, 0.99)
	}
	l.p50 = median(p50s)
	l.tail = median(tails)
	return l
}

func micros(ivs []interval) []float64 {
	us := make([]float64, len(ivs))
	for i, v := range ivs {
		us[i] = float64(v.dur.Nanoseconds()) / 1e3
	}
	return us
}

// windowRates splits [0, wall] into n equal windows and returns the units
// per second each one completed, an operation of per units counting in the
// window its call returned in.
func windowRates(ivs []interval, per float64, wall time.Duration, n int) []float64 {
	rates := make([]float64, n)
	win := wall / time.Duration(n)
	if win <= 0 {
		return rates
	}
	for _, v := range ivs {
		rates[min(int((v.start+v.dur)/win), n-1)] += per
	}
	for i := range rates {
		rates[i] /= win.Seconds()
	}
	return rates
}

// tailQuantile is the tail a run of n samples supports (see summarize).
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 0.5
}

// rank is the 1-based nearest rank of quantile q among n samples; the
// slack keeps q·n that is an integer up to rounding from moving up a rank.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile is the nearest-rank q-quantile of sorted, 0 when it is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return quantile(xs, 0.5)
}

// per is a/b, 0 when b is 0.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is what one pass of a workload measured, as the system's user
// sees it.
type endToEnd struct {
	setup []time.Duration // each set-up of the run
	unit  string          // what one element of throughput is: "elem" or "round"
	units float64         // elements completed in the timed phase
	wall  time.Duration   // timed phase, first call to last completion
	rates []float64       // elements per second in each of the phase's windows
	op    latencies
	query latencies
	heap  uint64   // live heap bytes after GC, the benchmark's inputs released
	gc    gcCounts // allocations and collections during the timed phase
}

// throughput is the median over the timed phase's windows, in Melem/s.
func (e *endToEnd) throughput() float64 {
	return median(slices.Clone(e.rates)) / 1e6
}

func (e *endToEnd) setupSeconds() float64 {
	s := make([]float64, len(e.setup))
	for i, d := range e.setup {
		s[i] = d.Seconds()
	}
	return median(s)
}

// metrics returns the end-to-end metrics BENCHMARK.json names.
func (e *endToEnd) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":            {e.setupSeconds(), "s"},
		"throughput_melem_s": {e.throughput(), "Melem/s"},
		"op_p50_us":          {e.op.p50, "us"},
		"op_p99_us":          {e.op.tail, "us"},
		"query_p50_us":       {e.query.p50, "us"},
		"query_p99_us":       {e.query.tail, "us"},
		"heap_mb":            {float64(e.heap) / 1e6, "MB"},
	}
}

func (e *endToEnd) print(rep *report, workload, mode string) {
	rep.printf("%s %s: setup_s %.6f (median of %d set-ups)", workload, mode, e.setupSeconds(), len(e.setup))
	rep.printf("%s %s: throughput_melem_s %.4f (median of %d windows: %s; %.0f %ss in %.3f s; %d allocations, %d collections)",
		workload, mode, e.throughput(), len(e.rates), fmtRates(e.rates), e.units, e.unit, e.wall.Seconds(), e.gc.mallocs, e.gc.gcs)
	for _, l := range []struct {
		name string
		l    latencies
	}{{"op", e.op}, {"query", e.query}} {
		rep.printf("%s %s: %s_p50_us %.2f, %s_p99_us %.2f (p%.0f of %d %s calls, median over %d parts)",
			workload, mode, l.name, l.l.p50, l.name, l.l.tail, 100*l.l.tailQ, l.l.n, l.l.what, l.l.parts)
	}
	rep.printf("%s %s: heap_mb %.3f (live heap after GC, inputs released)", workload, mode, float64(e.heap)/1e6)
}

func fmtRates(rates []float64) string {
	s := make([]string, len(rates))
	for i, r := range rates {
		s[i] = fmt.Sprintf("%.4g", r/1e6)
	}
	return strings.Join(s, " ")
}

// liveHeap is the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// gcCounts are cumulative counts of heap allocations and collections.
type gcCounts struct {
	mallocs uint64
	gcs     uint32
}

func readGC() gcCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCounts{m.Mallocs, m.NumGC}
}

// since is the allocations and collections made after c was read.
func (c gcCounts) since() gcCounts {
	now := readGC()
	return gcCounts{now.mallocs - c.mallocs, now.gcs - c.gcs}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
