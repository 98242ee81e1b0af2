package main

import (
	"time"

	"robustsample/internal/adversary"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	iruntime "robustsample/internal/runtime"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// sink keeps every rung's results observable, so no replay is optimized
// away.
var sink uint64

// timeRung times fn reps times and returns the median nanoseconds per unit
// of work, fn doing units of work per call.
func timeRung(reps, units int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = per(float64(time.Since(t0).Nanoseconds()), float64(units))
	}
	return median(ns)
}

// runLadder replays each workload's inputs through one layer's exported
// function at a time, on one goroutine, with the workload's data and chunk
// sizes. It returns the rungs by per-layer metric name.
func runLadder(cfg config, rep *report) (map[string]float64, error) {
	v := map[string]float64{}
	if err := serveLadder(cfg, rep, v); err != nil {
		return nil, err
	}
	if err := farmLadder(cfg, rep, v); err != nil {
		return nil, err
	}
	gameLadder(cfg, rep, v)
	return v, nil
}

// serveLadder: the stages one serve element passes through — RNG fill,
// batch route, ring push/pop, reservoir admission, consumer apply — and
// the serial engine that does all but the ring.
func serveLadder(cfg config, rep *report, v map[string]float64) error {
	reps := cfg.sizes.probes
	warm, stream := serveInputs(cfg.seed, cfg.sizes)
	n := len(stream)
	r := rng.NewWithStream(cfg.seed, streamLadder)

	ubuf := make([]uint64, 256)
	v["rng.fill_ns_per_elem"] = timeRung(reps, n, func() {
		for i := 0; i < n; i += len(ubuf) {
			r.FillUniform64(ubuf)
		}
		sink += ubuf[0]
	})

	dst := make([]int, serveBatch)
	v["runtime.route_ns_per_elem"] = timeRung(reps, n, func() {
		for off := 0; off < n; off += serveBatch {
			iruntime.RouteHashBatch(stream[off:off+serveBatch], dst, serveShards)
		}
		sink += uint64(dst[0])
	})

	ring := iruntime.NewRing(serveRing)
	buf := make([]int64, serveChunk)
	popped := 0
	v["runtime.ring_ns_per_elem"] = timeRung(reps, n, func() {
		for off := 0; off < n; off += serveChunk {
			popped += ring.PopInto(buf[:ring.PushBatch(stream[off:off+serveChunk])])
		}
	})
	rep.check(popped == reps*n, "ladder: ring passed %d of %d elements", popped, reps*n)

	res := sampler.NewReservoir[int64](serveMemory)
	offerAll := func() {
		for off := 0; off < n; off += serveChunk {
			sink += uint64(res.OfferBatch(stream[off:off+serveChunk], r))
		}
	}
	offerAll() // the rung measures a full reservoir
	v["sampler.offer_batch_ns_per_elem"] = timeRung(reps, n, offerAll)

	applied := sampler.NewReservoir[int64](serveMemory)
	acc := setsystem.NewPrefixes(serveUniverse).NewAccumulator()
	applyAll := func() {
		for off := 0; off < n; off += serveChunk {
			sink += uint64(game.IngestBatchSynced(applied, applied, acc, stream[off:off+serveChunk], r))
		}
	}
	applyAll()
	v["setsystem.apply_ns_per_elem"] = timeRung(reps, n, applyAll)
	rep.check(acc.SampleLen() == serveMemory && acc.StreamLen() == (reps+1)*n,
		"ladder: apply left %d sample and %d stream elements", acc.SampleLen(), acc.StreamLen())

	eng, err := newServeEngine(cfg.seed)
	if err != nil {
		return err
	}
	_, err = eng.OfferBatch(warm)
	rep.op(err, "ladder: warm-up Engine.OfferBatch")
	v["shard.serial_ns_per_elem"] = timeRung(reps, n, func() {
		for off := 0; off < n && err == nil; off += serveBatch {
			_, err = eng.OfferBatch(stream[off : off+serveBatch])
		}
	})
	rep.op(err, "ladder: Engine.OfferBatch")
	return nil
}

// farmLadder: keyed routing, and the farm's keyed ingest with every tenant
// hot (the end-to-end figure minus this is the churn tax).
func farmLadder(cfg config, rep *report, v map[string]float64) error {
	reps := cfg.sizes.probes
	popIDs, popXs, ids, xs := farmInputs(cfg.seed, cfg.sizes)
	keys := make([]int64, len(ids))
	for i, id := range ids {
		keys[i] = int64(id)
	}
	dst := make([]int, farmBatch)
	v["runtime.route_keys_ns_per_elem"] = timeRung(reps, len(keys), func() {
		for off := 0; off < len(keys); off += farmBatch {
			iruntime.RouteHashBatch(keys[off:off+farmBatch], dst, farmShards)
		}
		sink += uint64(dst[0])
	})

	f, err := newFarm(cfg.seed, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	pr := f.NewProducer()
	if err := populate(pr, popIDs, popXs, nil); err != nil {
		return err
	}
	offerAll := func() {
		for off := 0; off < len(ids) && err == nil; off += farmBatch {
			_, err = pr.OfferBatch(ids[off:off+farmBatch], xs[off:off+farmBatch])
		}
	}
	offerAll() // sizes the producer's scratch and touches every tenant the stream names
	v["farm.hot_ns_per_elem"] = timeRung(reps, len(ids), offerAll)
	rep.op(err, "ladder: farm Producer.OfferBatch")
	st := f.Stats()
	rep.check(st.Hydrations == 0 && st.Evictions == 0, "ladder: hot farm hydrated %d and evicted %d tenants", st.Hydrations, st.Evictions)
	return nil
}

// gameLadder: the adversary's decision, the scalar offer, and the
// accumulator's point updates and checkpoint verdicts, each replaying one
// recorded trial.
func gameLadder(cfg config, rep *report, v map[string]float64) {
	reps := cfg.sizes.probes
	g := newGameSpec(cfg.sizes.gameN)
	rec := g.play(sampler.NewReservoir[int64](g.k), adversary.NewMedianPusher(gameUniverse), rng.New(gameSeeds(cfg.seed)[0]), nil)
	r := rng.NewWithStream(cfg.seed, streamLadder)

	adv := adversary.NewMedianPusher(gameUniverse)
	obs := game.Observation{Round: g.n, N: g.n, Sample: rec.Sample, LastAdmitted: true, History: rec.Stream}
	v["adversary.next_ns"] = timeRung(reps, g.n, func() {
		for i := 0; i < g.n; i++ {
			sink += uint64(adv.Next(obs, r))
		}
	})

	s := sampler.NewReservoir[int64](g.k)
	v["sampler.offer_ns"] = timeRung(reps, g.n, func() {
		s.Reset()
		for _, x := range rec.Stream {
			s.Offer(x, r)
			added, removed := s.LastDelta()
			sink += uint64(len(added) + len(removed))
		}
	})

	// Record one replay's sample deltas (0: none; values are >= 1), then
	// time the accumulator alone, with each checkpoint's Max timed apart.
	added := make([]int64, g.n)
	removed := make([]int64, g.n)
	s.Reset()
	for i, x := range rec.Stream {
		s.Offer(x, r)
		a, d := s.LastDelta()
		if len(a) > 0 {
			added[i] = a[0]
		}
		if len(d) > 0 {
			removed[i] = d[0]
		}
	}
	acc := g.sys.NewAccumulator()
	points := make([]float64, reps)
	var maxes []float64
	var last setsystem.Discrepancy
	for k := range points {
		acc.Reset()
		acc.Reserve(g.n)
		var inMax time.Duration
		next := 0
		t0 := time.Now()
		for i, x := range rec.Stream {
			acc.AddStream(x)
			if added[i] != 0 {
				acc.AddSample(added[i])
			}
			if removed[i] != 0 {
				acc.RemoveSample(removed[i])
			}
			if next < len(g.cps) && g.cps[next] == i+1 {
				next++
				m0 := time.Now()
				last = acc.Max()
				dm := time.Since(m0)
				inMax += dm
				maxes = append(maxes, float64(dm.Nanoseconds())/1e3)
			}
		}
		points[k] = per(float64((time.Since(t0) - inMax).Nanoseconds()), float64(g.n))
	}
	v["setsystem.point_update_ns"] = median(points)
	v["setsystem.max_us"] = median(maxes)
	rep.check(last == g.sys.MaxDiscrepancy(rec.Stream, s.View()), "ladder: replayed accumulator's verdict differs from MaxDiscrepancy")
}
