package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// keepSpans is how many spans each lane keeps for the span file. Spans
// beyond it still count in the lane's per-name totals: a traced game makes
// two spans per round, millions per run.
const keepSpans = 4096

// span is one traced call into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"`      // the batch, query or trial index the call served
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// spanTotals aggregates the spans of one name. Self time is a span's
// duration minus the part its child spans cover.
type spanTotals struct {
	count       int
	total, self time.Duration
}

// tracer keeps spans in memory, one lane per goroutine, until they are
// written out when the benchmark ends. A nil *tracer traces nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a new lane for one goroutine, or nil when t is nil.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: int64(len(t.lanes) + 1), name: name, totals: map[string]*spanTotals{}}
	t.lanes = append(t.lanes, l)
	return l
}

// lane records the spans of one goroutine. Its spans nest, so a span's
// parent is the innermost span open when it began. Methods on a nil *lane
// do nothing, which is how untraced passes run the same code.
type lane struct {
	t       *tracer
	id      int64
	name    string
	seq     int64
	open    []openSpan
	spans   []span
	dropped int
	totals  map[string]*spanTotals
}

type openSpan struct {
	span
	child time.Duration // covered by child spans
}

// begin opens a span for a call named name serving request req.
func (l *lane) begin(name string, req int64) {
	if l == nil {
		return
	}
	l.seq++
	var parent int64
	if n := len(l.open); n > 0 {
		parent = l.open[n-1].ID
	}
	l.open = append(l.open, openSpan{span: span{
		ID: l.id<<40 | l.seq, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(l.t.epoch)),
	}})
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	n := len(l.open) - 1
	o := l.open[n]
	l.open = l.open[:n]
	o.End = int64(time.Since(l.t.epoch))
	d := time.Duration(o.End - o.Start)
	if n > 0 {
		l.open[n-1].child += d
	}
	tot := l.totals[o.Name]
	if tot == nil {
		tot = &spanTotals{}
		l.totals[o.Name] = tot
	}
	tot.count++
	tot.total += d
	tot.self += d - o.child
	if len(l.spans) < keepSpans {
		l.spans = append(l.spans, o.span)
	} else {
		l.dropped++
	}
}

// total is the summed duration of the lane's spans named name.
func (l *lane) total(name string) time.Duration {
	if l == nil || l.totals[name] == nil {
		return 0
	}
	return l.totals[name].total
}

// print writes, for every pass (the lane-name prefix before "/") and span
// name, the span count and total and self time.
func (t *tracer) print(rep *report) {
	type key struct{ pass, name string }
	sum := map[key]*spanTotals{}
	var keys []key
	for _, l := range t.lanes {
		pass, _, _ := strings.Cut(l.name, "/")
		for name, tot := range l.totals {
			k := key{pass, name}
			if sum[k] == nil {
				sum[k] = &spanTotals{}
				keys = append(keys, k)
			}
			sum[k].count += tot.count
			sum[k].total += tot.total
			sum[k].self += tot.self
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := strings.Compare(a.pass, b.pass); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	rep.printf("spans: pass name count total_ms self_ms mean_us")
	for _, k := range keys {
		s := sum[k]
		rep.printf("spans: %s %s %d %.3f %.3f %.3f", k.pass, k.name, s.count,
			float64(s.total.Nanoseconds())/1e6, float64(s.self.Nanoseconds())/1e6,
			float64(s.total.Nanoseconds())/1e3/float64(s.count))
	}
}

// write stores the kept spans at path, one JSON object per line, after a
// header line naming the machine and each lane's kept and dropped counts.
func (t *tracer) write(path string, m machine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type laneInfo struct {
		Lane    string `json:"lane"`
		Kept    int    `json:"kept"`
		Dropped int    `json:"dropped"`
	}
	header := struct {
		Machine machine    `json:"machine"`
		Lanes   []laneInfo `json:"lanes"`
	}{Machine: m}
	for _, l := range t.lanes {
		header.Lanes = append(header.Lanes, laneInfo{l.name, len(l.spans), l.dropped})
	}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(struct {
				Lane string `json:"lane"`
				span
			}{l.name, s}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
