package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"robustsample/farm"
	"robustsample/internal/rng"
	"robustsample/sketch"
)

// Farm workload shape: experiment E22's keyed ingest (internal/bench
// exp_farm.go) with a hot budget of an eighth of the population, so the
// Zipf tail keeps evicting and hydrating. The population is 10^4, not
// E22's 10^6 headline: a farm whose working set does not fit in cache runs
// at a speed that differs from process to process (on a 2-vCPU VM with a
// shared 300 MB L3, quartile spreads of ten runs reached 0.2–0.33 of the
// median at 10^6 tenants and 0.23 at 10^5, against at most 0.14 at 10^4).
const (
	farmK        = 16
	farmShards   = 32
	farmUniverse = int64(1) << 20
	farmBatch    = 512
	farmSkew     = 1.1
	farmSelect   = 64 // the monitor's query selects one tenant in farmSelect
	farmThink    = 250 * time.Millisecond
	farmHydrate  = 1000 // tail tenants the hydration probe evicts and offers to
)

// farmInputs generates the populate stream, one element for each tenant
// 1..T, and the keyed stream the producer cycles through: Zipf(1.1) tenant
// ids with uniform elements.
func farmInputs(seed uint64, sz sizes) (popIDs []farm.TenantID, popXs []int64, ids []farm.TenantID, xs []int64) {
	popIDs = make([]farm.TenantID, sz.tenants)
	for i := range popIDs {
		popIDs[i] = farm.TenantID(i + 1)
	}
	popXs = uniform(rng.NewWithStream(seed, streamFarmPopulate), sz.tenants, farmUniverse)
	r := rng.NewWithStream(seed, streamFarm)
	z := rng.NewZipf(int64(sz.tenants), farmSkew)
	ids = make([]farm.TenantID, sz.farmStream)
	xs = make([]int64, sz.farmStream)
	for i := range ids {
		ids[i] = farm.TenantID(z.Draw(r))
		xs[i] = 1 + r.Int63n(farmUniverse)
	}
	return popIDs, popXs, ids, xs
}

// farmSelected is the monitor's fixed tenant selection.
func farmSelected(id farm.TenantID) bool { return id%farmSelect == 0 }

// newFarm builds the workload's farm; maxHot 0 leaves every tenant hot.
func newFarm(seed uint64, maxHot int) (*farm.Farm[int64], error) {
	u, err := sketch.NewInt64Universe(farmUniverse)
	if err != nil {
		return nil, err
	}
	opts := []farm.Option{farm.WithSeed(seed), farm.WithShards(farmShards)}
	if maxHot > 0 {
		opts = append(opts, farm.WithMaxHotTenants(maxHot))
	}
	return farm.NewReservoirFarm(u, farmK, opts...)
}

// populate offers every tenant its first element.
func populate(p *farm.Producer[int64], ids []farm.TenantID, xs []int64, ln *lane) error {
	for i := 0; i*farmBatch < len(ids); i++ {
		lo, hi := i*farmBatch, min((i+1)*farmBatch, len(ids))
		ln.begin("farm.Producer.OfferBatch", int64(i))
		_, err := p.OfferBatch(ids[lo:hi], xs[lo:hi])
		ln.end()
		if err != nil {
			return fmt.Errorf("farm: populate: %w", err)
		}
	}
	return nil
}

// overlapP50 is the median duration in µs of the operations that overlap
// some query. Both lists are sorted by start and queries do not overlap.
func overlapP50(ops, queries []interval) float64 {
	var us []float64
	q := 0
	for _, o := range ops {
		for q < len(queries) && queries[q].start+queries[q].dur <= o.start {
			q++
		}
		if q < len(queries) && queries[q].start < o.start+o.dur {
			us = append(us, float64(o.dur.Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// farmPass is what one farm pass measured.
type farmPass struct {
	endToEnd
	hydrations, evictions uint64  // Stats deltas over the timed phase
	overlapP50            float64 // µs, offers whose span overlapped a query's
	slotBytes             float64 // slab bytes per hot tenant
	queryIdle             float64 // ms, GlobalQuantile with ingest paused (traced only)
	hydrate               float64 // µs, Offer to a just-evicted tail tenant (traced only)
}

// runFarm runs the farm workload: one producer sends Zipf-keyed batches of
// 512 through Producer.OfferBatch while one monitor runs GlobalQuantile
// over a fixed 1/64 of the tenants, then thinks for 250 ms. A 30-second
// run thus holds about 120 queries, too few for a p99: its query tail is
// the pooled p90, clear of the 100 queries below which it would drop to
// p80. (With a few ms of think time the query tail measured the monitor's
// scheduling delays under CPU steal, not the query.)
func runFarm(cfg config, rep *report, nsetup int, tr *tracer) (farmPass, error) {
	p := farmPass{endToEnd: endToEnd{unit: "elem"}}
	sz := cfg.sizes
	popIDs, popXs, ids, xs := farmInputs(cfg.seed, sz)
	main := tr.lane("farm/main")
	var (
		f  *farm.Farm[int64]
		pr *farm.Producer[int64]
	)
	for i := 0; i < nsetup; i++ {
		if f != nil {
			rep.op(f.Close(), "farm: Close")
			f, pr = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		main.begin("farm.setup", int64(i))
		var err error
		f, err = newFarm(cfg.seed, sz.tenants/8)
		if err == nil {
			pr = f.NewProducer()
			err = populate(pr, popIDs, popXs, main)
		}
		main.end()
		if err != nil {
			return p, err
		}
		p.setup = append(p.setup, time.Since(t0))
	}
	defer f.Close()

	var (
		wg           sync.WaitGroup
		prod, mon    tally
		ops, queries []interval
		keyed        int
		end          time.Time
	)
	stop := make(chan struct{})
	runtime.GC()
	st0 := f.Stats()
	gc0 := readGC()
	start := time.Now()
	deadline := start.Add(cfg.dur)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(stop)
		ln := tr.lane("farm/producer")
		for i := 0; ; i++ {
			off := i * farmBatch % len(ids)
			t0 := time.Now()
			if t0.After(deadline) {
				end = t0
				return
			}
			ln.begin("farm.Producer.OfferBatch", int64(i))
			_, err := pr.OfferBatch(ids[off:off+farmBatch], xs[off:off+farmBatch])
			ln.end()
			ops = append(ops, interval{t0.Sub(start), time.Since(t0)})
			prod.check(err == nil, "farm: OfferBatch: %v", err)
			if err == nil {
				keyed += farmBatch
			}
		}
	}()
	go func() {
		defer wg.Done()
		ln := tr.lane("farm/monitor")
		for i := 0; time.Now().Before(deadline); i++ {
			t0 := time.Now()
			ln.begin("farm.Farm.GlobalQuantile", int64(i))
			q, err := f.GlobalQuantile(0.5, farmSelected)
			ln.end()
			queries = append(queries, interval{t0.Sub(start), time.Since(t0)})
			mon.check(err == nil && q >= 1 && q <= farmUniverse, "farm: GlobalQuantile = %d, error %v", q, err)
			select {
			case <-stop:
				return
			case <-time.After(farmThink):
			}
		}
	}()
	wg.Wait()
	p.gc = gc0.since()
	p.wall = end.Sub(start)
	p.units = float64(keyed)
	rep.add(&prod)
	rep.add(&mon)

	st := f.Stats()
	p.hydrations = st.Hydrations - st0.Hydrations
	p.evictions = st.Evictions - st0.Evictions
	p.slotBytes = per(float64(st.SlabBytes), float64(st.Hot))
	p.rates = windowRates(ops, farmBatch, p.wall, maxParts)
	p.op = summarize("Producer.OfferBatch", ops)
	p.query = summarize("Farm.GlobalQuantile", queries)
	p.overlapP50 = overlapP50(ops, queries)
	rep.check(p.op.n > 0 && p.query.n > 0, "farm: %d offers and %d queries completed", p.op.n, p.query.n)
	rep.check(st.Offered == uint64(len(popIDs)+keyed), "farm: Stats().Offered %d, want populate %d + keyed %d", st.Offered, len(popIDs), keyed)
	rep.check(st.Tenants == sz.tenants, "farm: %d tenants, want %d", st.Tenants, sz.tenants)
	if tr != nil {
		idle := make([]float64, sz.probes)
		for i := range idle {
			t0 := time.Now()
			main.begin("farm.Farm.GlobalQuantile", int64(i))
			_, err := f.GlobalQuantile(0.5, farmSelected)
			main.end()
			idle[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			rep.op(err, "farm: idle GlobalQuantile")
		}
		p.queryIdle = median(idle)
		hyd := make([]float64, min(farmHydrate, sz.tenants))
		for j := range hyd {
			id := farm.TenantID(sz.tenants - j)
			main.begin("farm.Farm.Evict", int64(j))
			err := f.Evict(id)
			main.end()
			rep.op(err, "farm: Evict")
			t0 := time.Now()
			main.begin("farm.Farm.Offer", int64(j))
			_, err = f.Offer(id, popXs[j])
			main.end()
			hyd[j] = float64(time.Since(t0).Nanoseconds()) / 1e3
			rep.op(err, "farm: Offer after Evict")
		}
		p.hydrate = median(hyd)
	}

	// Release the benchmark's own inputs and samples before reading the heap.
	popIDs, popXs, ids, xs, ops, queries = nil, nil, nil, nil, nil, nil
	p.heap = liveHeap()
	runtime.KeepAlive(pr)
	return p, nil
}
