package bench

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"robustsample/internal/faults"
	"robustsample/internal/rng"
	"robustsample/internal/shard"
)

// ExpE20 exercises the self-healing serving runtime under injected faults.
//
// The recovery arm runs the deterministic pipeline with a seeded fault plan
// that crashes every shard at least once mid-stream (scheduled ordinals, on
// top of probabilistic crashes and poisoned batches) and checks the
// recovered session's verdict and union sample are byte-identical to serial
// ingest — the crash-recovery contract: checkpoint restore plus redo-journal
// replay leaves no trace.
//
// The availability arm runs live-mode ingest while a monitor issues
// degraded reads (VerdictCovered) concurrently, sweeping the injected crash
// rate (with a matching stall rate, the fault that actually wedges shard
// locks). It reports the fraction of reads that covered every shard within
// the query wait bound, the recovery counters, the lost rounds (bounded by
// one checkpoint interval per crash), and the exact final verdict error —
// which stays at sampling scale because losses are a vanishing fraction of
// the stream. A custom plan (robustbench -faults "seed=1,crash=0.01,...")
// replaces the sweep with that single measured point.
func ExpE20(cfg Config) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "Self-healing serving: crash recovery and degraded-read availability under injected faults",
		Source:  "ROADMAP failure-injection arm; [CMYZ12] continuous monitoring with sites failing and rejoining",
		Columns: []string{"arm", "faults", "n", "crashes", "restores", "lost", "avail", "verdict-err", "identical"},
	}

	// Recovery arm: deterministic pipeline vs serial ingest, every shard
	// crashed by schedule.
	n := cfg.scaled(20000, 2000)
	stream := servingStream(n, cfg.Seed+20)
	serial := servingEngine(rng.New(cfg.Seed + 200))
	serial.OfferBatch(stream)
	wantV := serial.Verdict()
	wantSample := serial.Sample()

	plan := faults.MustPlan(faults.Spec{
		Seed:          cfg.Seed + 1,
		CrashOrdinals: [][]uint64{{2, 8}, {4}, {3, 7}, {5}},
		CrashProb:     0.01,
		CorruptProb:   0.02,
	}, servingShards)
	eng := servingEngine(rng.New(cfg.Seed + 200))
	srv, err := eng.Serve(shard.ServeConfig{
		Producers: 2, Deterministic: true,
		RingSize: 256, ChunkCap: 32, CheckpointEvery: 256, Faults: plan,
	})
	if err != nil {
		panic(err)
	}
	const lanes = 2
	var wg sync.WaitGroup
	wg.Add(lanes)
	for lane := 0; lane < lanes; lane++ {
		go func(lane int) {
			defer wg.Done()
			pr := srv.Producer(lane)
			for g := lane; g < len(stream); g += lanes {
				if err := pr.Offer(stream[g]); err != nil {
					panic(err)
				}
			}
			pr.Close()
		}(lane)
	}
	wg.Wait()
	srv.Flush()
	v := srv.Verdict()
	identical := v == wantV && slices.Equal(srv.Sample(), wantSample)
	h := srv.Health()
	srv.Close()
	t.AddRow("recovery", "sched+0.01", n, h.Crashes, h.Restores, h.LostRounds, "-", v.Err, identical)

	// Availability arm: live ingest with concurrent degraded reads.
	type point struct {
		label string
		spec  faults.Spec
	}
	var pts []point
	if cfg.Faults != "" {
		spec, err := faults.ParseSpec(cfg.Faults)
		if err != nil {
			panic(fmt.Sprintf("bench: -faults: %v", err))
		}
		pts = []point{{label: "custom", spec: spec}}
	} else {
		for _, rate := range []float64{0, 0.002, 0.01, 0.05} {
			pts = append(pts, point{
				label: fmt.Sprintf("crash=%g", rate),
				spec: faults.Spec{
					Seed:        cfg.Seed + 2,
					CrashProb:   rate,
					StallProb:   rate,
					StallFor:    2 * time.Millisecond,
					CorruptProb: rate / 2,
				},
			})
		}
	}
	perLane := cfg.scaled(100000, 10000)
	for _, pt := range pts {
		plan := faults.MustPlan(pt.spec, servingShards)
		eng := servingEngine(rng.New(cfg.Seed + 201))
		srv, err := eng.Serve(shard.ServeConfig{
			Producers: lanes, RingSize: 1024, ChunkCap: 128,
			CheckpointEvery: 512, Faults: plan,
			QueryWait: 500 * time.Microsecond,
		})
		if err != nil {
			panic(err)
		}
		stop := make(chan struct{})
		var qwg sync.WaitGroup
		queries, complete := 0, 0
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, cov := srv.VerdictCovered(); cov.Routed > 0 {
					queries++
					if cov.Complete() {
						complete++
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		var pwg sync.WaitGroup
		pwg.Add(lanes)
		for lane := 0; lane < lanes; lane++ {
			go func(lane int) {
				defer pwg.Done()
				pr := srv.Producer(lane)
				xs := servingStream(perLane, cfg.Seed+uint64(300+lane))
				for len(xs) > 0 {
					m := min(512, len(xs))
					if err := pr.OfferBatch(xs[:m]); err != nil {
						panic(err)
					}
					xs = xs[m:]
				}
			}(lane)
		}
		pwg.Wait()
		srv.Flush()
		close(stop)
		qwg.Wait()
		h := srv.Health()
		srv.Close()
		fv := eng.Verdict()
		avail := 1.0
		if queries > 0 {
			avail = float64(complete) / float64(queries)
		}
		t.AddRow("availability", pt.label, lanes*perLane, h.Crashes, h.Restores, h.LostRounds, avail, fv.Err, "-")
	}

	t.Notes = append(t.Notes,
		"expected shape: the recovery row reports identical=true with lost=0 — deterministic-mode restore (checkpoint + redo journal) is bit-exact, and crashes >= 6 (every shard's scheduled ordinals fired)",
		"expected shape: verdict-err stays at sampling scale as the crash rate grows (losses are a vanishing fraction of the stream) and lost <= crashes * (checkpoint interval + chunk) by the rejoin contract; availability degrades gracefully with the stall rate — reads keep answering within the wait bound over the reachable subset instead of blocking",
		"availability-arm crash/lost/avail cells depend on live-mode scheduling and vary slightly run to run (like E19's throughput cells); the recovery row is deterministic",
		"robustbench -exp E20 -faults \"seed=1,crash=0.01,stall=0.005@2ms,corrupt=0.005\" measures one custom fault plan instead of the sweep")
	return t
}
