package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"robustsample/internal/rng"
	"robustsample/shard"
	"robustsample/sketch"
)

// Serve workload shape: the ConcurrentIngest configuration of experiment
// E19 (internal/bench/exp_serving.go) without its modeled client sleep.
const (
	serveShards   = 4
	serveMemory   = 256
	serveUniverse = int64(1) << 12
	serveRing     = 4096
	serveChunk    = 1024
	serveBatch    = 2048
	serveThink    = 2 * time.Millisecond
	// serveMaxErr is the Theorem 1.2 epsilon of the merged 4·256-point
	// sample for the prefixes of [2^12] at delta 0.1; every verdict must
	// stay within it.
	serveMaxErr = 0.15
)

// serveInputs generates the warm-up and the stream the producer cycles
// through: uniform values of [1, 2^12], the accumulators' dense regime.
func serveInputs(seed uint64, sz sizes) (warm, stream []int64) {
	warm = uniform(rng.NewWithStream(seed, streamServeWarm), sz.serveWarm, serveUniverse)
	stream = uniform(rng.NewWithStream(seed, streamServe), sz.serveStream, serveUniverse)
	return warm, stream
}

// newServeEngine builds the serve workload's engine.
func newServeEngine(seed uint64) (*shard.Engine[int64], error) {
	u, err := sketch.NewInt64Universe(serveUniverse)
	if err != nil {
		return nil, err
	}
	return shard.New(u,
		shard.WithShards(serveShards),
		shard.WithReservoir(serveMemory),
		shard.WithSystem(shard.Prefixes),
		shard.WithRouter(shard.RouterHash),
		shard.WithWorkers(1),
		shard.WithSeed(seed),
		shard.WithPipeline(shard.PipelineConfig{Producers: 1, RingSize: serveRing, ChunkCap: serveChunk}))
}

// serveSetup builds the engine, fills every reservoir with a serial
// warm-up, and starts serving.
func serveSetup(seed uint64, warm []int64, ln *lane) (*shard.Serving[int64], error) {
	ln.begin("shard.New", 0)
	eng, err := newServeEngine(seed)
	ln.end()
	if err != nil {
		return nil, fmt.Errorf("serve: shard.New: %w", err)
	}
	for i := 0; i*serveBatch < len(warm); i++ {
		ln.begin("shard.Engine.OfferBatch", int64(i))
		_, err := eng.OfferBatch(warm[i*serveBatch : min((i+1)*serveBatch, len(warm))])
		ln.end()
		if err != nil {
			return nil, fmt.Errorf("serve: warm-up OfferBatch: %w", err)
		}
	}
	ln.begin("shard.Engine.Serve", 0)
	srv, err := eng.Serve(context.Background())
	ln.end()
	if err != nil {
		return nil, fmt.Errorf("serve: Serve: %w", err)
	}
	return srv, nil
}

// servePass is what one serve pass measured.
type servePass struct {
	endToEnd
	cpu         time.Duration // process CPU over the timed phase
	backlog     float64       // median of Rounds − AppliedRounds before each query
	flush       time.Duration // the final Flush
	idleVerdict float64       // µs, median Verdict after Flush with the producer idle (traced only)
}

// runServe runs the serve workload: one producer saturates OfferBatch with
// 2048-element batches while one monitor polls Verdict with about 2 ms of
// think time; the final Flush ends the timed phase.
func runServe(cfg config, rep *report, nsetup int, tr *tracer) (servePass, error) {
	p := servePass{endToEnd: endToEnd{unit: "elem"}}
	warm, stream := serveInputs(cfg.seed, cfg.sizes)
	main := tr.lane("serve/main")
	var srv *shard.Serving[int64]
	for i := 0; i < nsetup; i++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		main.begin("serve.setup", int64(i))
		var err error
		srv, err = serveSetup(cfg.seed, warm, main)
		main.end()
		if err != nil {
			return p, err
		}
		p.setup = append(p.setup, time.Since(t0))
	}
	defer srv.Close()
	pr, err := srv.Producer(0)
	if err != nil {
		return p, err
	}

	var (
		wg              sync.WaitGroup
		prod, mon       tally
		opLat, queryLat []interval
		backlog         []float64
		offered         int
	)
	runtime.GC()
	gc0 := readGC()
	cpu0, err := cpuTime()
	if err != nil {
		return p, err
	}
	start := time.Now()
	deadline := start.Add(cfg.dur)
	wg.Add(2)
	go func() {
		defer wg.Done()
		ln := tr.lane("serve/producer")
		for i := 0; ; i++ {
			off := i * serveBatch % len(stream)
			t0 := time.Now()
			if t0.After(deadline) {
				return
			}
			ln.begin("shard.Producer.OfferBatch", int64(i))
			err := pr.OfferBatch(stream[off : off+serveBatch])
			ln.end()
			opLat = append(opLat, interval{t0.Sub(start), time.Since(t0)})
			prod.check(err == nil, "serve: OfferBatch: %v", err)
			if err == nil {
				offered += serveBatch
			}
		}
	}()
	go func() {
		defer wg.Done()
		ln := tr.lane("serve/monitor")
		for i := 0; time.Now().Before(deadline); i++ {
			backlog = append(backlog, float64(srv.Rounds()-srv.AppliedRounds()))
			t0 := time.Now()
			ln.begin("shard.Serving.Verdict", int64(i))
			v, err := srv.Verdict()
			ln.end()
			queryLat = append(queryLat, interval{t0.Sub(start), time.Since(t0)})
			mon.check(err == nil && v.Err <= serveMaxErr, "serve: Verdict err %.4f (limit %.2f), error %v", v.Err, serveMaxErr, err)
			time.Sleep(serveThink)
		}
	}()
	wg.Wait()
	p.gc = gc0.since()
	t0 := time.Now()
	main.begin("shard.Serving.Flush", 0)
	ep := srv.Flush()
	main.end()
	p.flush = time.Since(t0)
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	rep.add(&prod)
	rep.add(&mon)

	p.units = float64(ep.Applied)
	p.rates = windowRates(opLat, serveBatch, p.wall, maxParts)
	p.op = summarize("Producer.OfferBatch", opLat)
	p.query = summarize("Serving.Verdict", queryLat)
	p.backlog = median(backlog)
	rep.check(p.op.n > 0 && p.query.n > 0, "serve: %d offers and %d queries completed", p.op.n, p.query.n)
	rep.check(ep.Applied == uint64(offered), "serve: final Flush applied %d elements, %d offered", ep.Applied, offered)
	rep.check(srv.AppliedRounds() == len(warm)+offered, "serve: %d rounds applied, want warm-up %d + offered %d", srv.AppliedRounds(), len(warm), offered)
	rep.check(srv.SampleLen() == serveShards*serveMemory, "serve: SampleLen %d, want %d", srv.SampleLen(), serveShards*serveMemory)
	v, err := srv.Verdict()
	rep.check(err == nil && v.Err <= serveMaxErr, "serve: final Verdict err %.4f (limit %.2f), error %v", v.Err, serveMaxErr, err)
	if tr != nil {
		idle := make([]float64, cfg.sizes.probes)
		for i := range idle {
			t0 := time.Now()
			main.begin("shard.Serving.Verdict", int64(i))
			_, err := srv.Verdict()
			main.end()
			idle[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			rep.op(err, "serve: idle Verdict")
		}
		p.idleVerdict = median(idle)
	}

	// Release the benchmark's own inputs and samples before reading the heap.
	warm, stream, opLat, queryLat, backlog = nil, nil, nil, nil, nil
	p.heap = liveHeap()
	runtime.KeepAlive(srv)
	return p, nil
}
