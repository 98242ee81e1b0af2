package farm

import (
	"errors"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/sketch"
)

// refTenant is the ground truth for one tenant: a dedicated standalone
// sampler over the tenant's RNG stream, exactly what the farm multiplexes
// through flat slab state.
type refTenant struct {
	res *sampler.Reservoir[int64]
	ber *sampler.Bernoulli[int64]
	rng *rng.RNG
}

func newRefReservoir(seed uint64, id TenantID, k int) *refTenant {
	return &refTenant{res: &sampler.Reservoir[int64]{K: k}, rng: rng.NewWithStream(seed, uint64(id))}
}

func newRefBernoulli(seed uint64, id TenantID, p float64) *refTenant {
	return &refTenant{ber: &sampler.Bernoulli[int64]{P: p}, rng: rng.NewWithStream(seed, uint64(id))}
}

func (rt *refTenant) offer(pts []int64) int {
	if rt.res != nil {
		return rt.res.OfferBatch(pts, rt.rng)
	}
	return rt.ber.OfferBatch(pts, rt.rng)
}

func (rt *refTenant) view() []int64 {
	if rt.res != nil {
		return rt.res.View()
	}
	return rt.ber.View()
}

func (rt *refTenant) rounds() int {
	if rt.res != nil {
		return rt.res.Rounds()
	}
	return rt.ber.Rounds()
}

func mustU(t testing.TB, n int64) sketch.Universe[int64] {
	t.Helper()
	u, err := sketch.NewInt64Universe(n)
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	return u
}

// driveDifferential feeds an identical random keyed workload to the farm
// and to per-tenant reference samplers, comparing admitted counts on every
// batch and full sample state at the end.
func driveDifferential(t *testing.T, f *Farm[int64], refs map[TenantID]*refTenant, mk func(TenantID) *refTenant, tenants, iters int) {
	t.Helper()
	driver := rng.New(12345)
	for it := 0; it < iters; it++ {
		id := TenantID(driver.Intn(tenants) + 1)
		n := driver.Intn(40)
		batch := make([]int64, n)
		for i := range batch {
			batch[i] = int64(driver.Intn(1000)) + 1
		}
		rt, ok := refs[id]
		if !ok {
			rt = mk(id)
			refs[id] = rt
		}
		got, err := f.OfferBatch(id, batch)
		if err != nil {
			t.Fatalf("iter %d tenant %d: OfferBatch: %v", it, id, err)
		}
		if want := rt.offer(batch); got != want {
			t.Fatalf("iter %d tenant %d: admitted %d, reference %d", it, id, got, want)
		}
	}
	checkAgainstRefs(t, f, refs)
}

func checkAgainstRefs(t *testing.T, f *Farm[int64], refs map[TenantID]*refTenant) {
	t.Helper()
	for id, rt := range refs {
		sample, err := f.Sample(id)
		if err != nil {
			t.Fatalf("tenant %d: Sample: %v", id, err)
		}
		want := rt.view()
		if len(sample) != len(want) {
			t.Fatalf("tenant %d: sample len %d, reference %d", id, len(sample), len(want))
		}
		for i := range want {
			if sample[i] != want[i] {
				t.Fatalf("tenant %d: sample[%d] = %d, reference %d", id, i, sample[i], want[i])
			}
		}
		rounds, err := f.Rounds(id)
		if err != nil {
			t.Fatalf("tenant %d: Rounds: %v", id, err)
		}
		if rounds != rt.rounds() {
			t.Fatalf("tenant %d: rounds %d, reference %d", id, rounds, rt.rounds())
		}
	}
}

// TestFarmReservoirMatchesStandalone pins the tentpole claim: a reservoir
// farm over flat slab state is byte-identical to one standalone Algorithm R
// sampler per tenant, admission bits, sample order and rounds included.
func TestFarmReservoirMatchesStandalone(t *testing.T) {
	const seed, k = 7, 16
	f, err := NewReservoirFarm(mustU(t, 1000), k, WithSeed(seed), WithShards(4))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	defer f.Close()
	refs := make(map[TenantID]*refTenant)
	driveDifferential(t, f, refs, func(id TenantID) *refTenant { return newRefReservoir(seed, id, k) }, 50, 400)
}

// TestFarmBernoulliMatchesStandalone is the Bernoulli analogue, exercising
// slot growth across size classes as samples outgrow their slabs.
func TestFarmBernoulliMatchesStandalone(t *testing.T) {
	const seed = 11
	const p = 0.3
	f, err := NewBernoulliFarm(mustU(t, 1000), p, WithSeed(seed), WithShards(4))
	if err != nil {
		t.Fatalf("NewBernoulliFarm: %v", err)
	}
	defer f.Close()
	refs := make(map[TenantID]*refTenant)
	driveDifferential(t, f, refs, func(id TenantID) *refTenant { return newRefBernoulli(seed, id, p) }, 20, 400)
}

// TestFarmEvictionBitIdentity forces heavy evict/hydrate churn (a hot
// bound far below the tenant count) and requires the exact same final
// state as the standalone reference: cold-tenant round-trips through the
// snapshot payload must be lossless, RNG state included.
func TestFarmEvictionBitIdentity(t *testing.T) {
	const seed, k = 3, 8
	for _, kind := range []string{"reservoir", "bernoulli"} {
		var f *Farm[int64]
		var err error
		var mk func(TenantID) *refTenant
		if kind == "reservoir" {
			f, err = NewReservoirFarm(mustU(t, 1000), k, WithSeed(seed), WithShards(2), WithMaxHotTenants(8))
			mk = func(id TenantID) *refTenant { return newRefReservoir(seed, id, k) }
		} else {
			f, err = NewBernoulliFarm(mustU(t, 1000), 0.25, WithSeed(seed), WithShards(2), WithMaxHotTenants(8))
			mk = func(id TenantID) *refTenant { return newRefBernoulli(seed, id, 0.25) }
		}
		if err != nil {
			t.Fatalf("%s: constructor: %v", kind, err)
		}
		refs := make(map[TenantID]*refTenant)
		driveDifferential(t, f, refs, mk, 60, 500)
		if st := f.Stats(); st.Evictions == 0 || st.Hydrations == 0 {
			t.Fatalf("%s: expected evict/hydrate churn, got %+v", kind, st)
		}
		f.Close()
	}
}

// TestFarmSpillBitIdentity repeats the eviction differential with cold
// tenants spilled to disk segment files.
func TestFarmSpillBitIdentity(t *testing.T) {
	const seed, k = 5, 8
	f, err := NewReservoirFarm(mustU(t, 1000), k,
		WithSeed(seed), WithShards(2), WithMaxHotTenants(6), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	defer f.Close()
	refs := make(map[TenantID]*refTenant)
	driveDifferential(t, f, refs, func(id TenantID) *refTenant { return newRefReservoir(seed, id, k) }, 60, 500)
	st := f.Stats()
	if st.Spilled == 0 {
		t.Fatalf("expected spilled tenants, got %+v", st)
	}
	if st.SpillBytes == 0 {
		t.Fatalf("expected non-empty spill files, got %+v", st)
	}
}

// TestFarmSpillCorruption flips bits in the spill segment files and
// requires every touched tenant to fail with ErrBadSnapshot — never a
// silently wrong sample.
func TestFarmSpillCorruption(t *testing.T) {
	const seed, k = 9, 8
	f, err := NewReservoirFarm(mustU(t, 1000), k,
		WithSeed(seed), WithShards(2), WithMaxHotTenants(4), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	defer f.Close()
	driver := rng.New(1)
	for id := TenantID(1); id <= 40; id++ {
		batch := make([]int64, 20)
		for i := range batch {
			batch[i] = int64(driver.Intn(1000)) + 1
		}
		if _, err := f.OfferBatch(id, batch); err != nil {
			t.Fatalf("OfferBatch: %v", err)
		}
	}
	// Corrupt every spilled record in place.
	var spilled []TenantID
	for _, sh := range f.shards {
		sh.mu.Lock()
		for i := range sh.entries {
			e := &sh.entries[i]
			if e.state != stateSpilled {
				continue
			}
			spilled = append(spilled, e.id)
			buf := make([]byte, spillHeader+int(e.spillLen))
			if _, err := sh.spill.f.ReadAt(buf, e.spillOff); err != nil {
				sh.mu.Unlock()
				t.Fatalf("read spill record: %v", err)
			}
			buf[spillHeader] ^= 0xff // corrupt the payload, not just the checksum
			if _, err := sh.spill.f.WriteAt(buf, e.spillOff); err != nil {
				sh.mu.Unlock()
				t.Fatalf("corrupt spill record: %v", err)
			}
		}
		sh.mu.Unlock()
	}
	if len(spilled) == 0 {
		t.Fatal("no spilled tenants to corrupt")
	}
	for _, id := range spilled {
		if _, err := f.Sample(id); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("Sample(%d) after corruption: err = %v, want ErrBadSnapshot", id, err)
		}
		if _, err := f.OfferBatch(id, []int64{1}); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("OfferBatch(%d) after corruption: err = %v, want ErrBadSnapshot", id, err)
		}
	}
}

// TestProducerMatchesDirectOffers pins the keyed batch lane to the direct
// per-tenant path: routing, run grouping and shard fan-out must not change
// any tenant's stream view.
func TestProducerMatchesDirectOffers(t *testing.T) {
	const seed, k = 21, 12
	fa, err := NewReservoirFarm(mustU(t, 1000), k, WithSeed(seed), WithShards(4))
	if err != nil {
		t.Fatalf("farm A: %v", err)
	}
	defer fa.Close()
	fb, err := NewReservoirFarm(mustU(t, 1000), k, WithSeed(seed), WithShards(4))
	if err != nil {
		t.Fatalf("farm B: %v", err)
	}
	defer fb.Close()
	p := fa.NewProducer()
	driver := rng.New(777)
	totalA, totalB := 0, 0
	for batch := 0; batch < 50; batch++ {
		n := driver.Intn(100) + 1
		ids := make([]TenantID, n)
		xs := make([]int64, n)
		for i := range ids {
			ids[i] = TenantID(driver.Intn(30) + 1)
			xs[i] = int64(driver.Intn(1000)) + 1
		}
		adm, err := p.OfferBatch(ids, xs)
		if err != nil {
			t.Fatalf("producer batch %d: %v", batch, err)
		}
		totalA += adm
		// Replay per tenant in order on farm B.
		for i := 0; i < n; {
			j := i + 1
			for j < n && ids[j] == ids[i] {
				j++
			}
			adm, err := fb.OfferBatch(ids[i], xs[i:j])
			if err != nil {
				t.Fatalf("direct batch %d: %v", batch, err)
			}
			totalB += adm
			i = j
		}
	}
	if totalA != totalB {
		t.Fatalf("admitted: producer %d, direct %d", totalA, totalB)
	}
	for id := TenantID(1); id <= 30; id++ {
		sa, errA := fa.Sample(id)
		sb, errB := fb.Sample(id)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("tenant %d: err %v vs %v", id, errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(sa) != len(sb) {
			t.Fatalf("tenant %d: sample len %d vs %d", id, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("tenant %d: sample[%d] %d vs %d", id, i, sa[i], sb[i])
			}
		}
	}
}

// TestFarmLifecycleErrors covers the sentinel contract: unknown tenants,
// tombstones, closed farms, mismatched batches and the memory bound.
func TestFarmLifecycleErrors(t *testing.T) {
	f, err := NewReservoirFarm(mustU(t, 100), 4, WithShards(2))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	if _, err := f.Sample(99); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Sample(unknown): %v", err)
	}
	if err := f.Evict(99); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Evict(unknown): %v", err)
	}
	if _, err := f.OfferBatch(1, []int64{5, 6, 7}); err != nil {
		t.Fatalf("OfferBatch: %v", err)
	}
	if err := f.Drop(1); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if _, err := f.OfferBatch(1, []int64{5}); !errors.Is(err, ErrTenantEvicted) {
		t.Fatalf("OfferBatch(dropped): %v", err)
	}
	if _, err := f.Sample(1); !errors.Is(err, ErrTenantEvicted) {
		t.Fatalf("Sample(dropped): %v", err)
	}
	if err := f.Drop(1); !errors.Is(err, ErrTenantEvicted) {
		t.Fatalf("Drop(dropped): %v", err)
	}
	if _, err := f.OfferBatch(2, []int64{7}); err != nil {
		t.Fatalf("OfferBatch(2): %v", err)
	}
	if _, err := f.OfferBatch(2, []int64{5, 101}); !errors.Is(err, sketch.ErrOutOfUniverse) {
		t.Fatalf("OfferBatch(out of universe): %v", err)
	}
	if got, err := f.Rounds(2); err != nil || got != 1 {
		t.Fatalf("out-of-universe batch was not atomic: rounds %d, err %v", got, err)
	}
	p := f.NewProducer()
	if _, err := p.OfferBatch([]TenantID{1, 2}, []int64{1}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("mismatched keyed batch: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := f.OfferBatch(2, []int64{5}); !errors.Is(err, ErrFarmClosed) {
		t.Fatalf("OfferBatch(closed): %v", err)
	}
	if _, err := f.Sample(2); !errors.Is(err, ErrFarmClosed) {
		t.Fatalf("Sample(closed): %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFarmMemoryBound verifies the WithMaxBytes hard bound surfaces as
// ErrFarmFull instead of unbounded growth.
func TestFarmMemoryBound(t *testing.T) {
	f, err := NewReservoirFarm(mustU(t, 1000), 64, WithShards(1), WithMaxBytes(4096))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	defer f.Close()
	var full bool
	for id := TenantID(1); id <= 1000; id++ {
		_, err := f.OfferBatch(id, []int64{1, 2, 3})
		if errors.Is(err, ErrFarmFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatalf("tenant %d: %v", id, err)
		}
	}
	if !full {
		t.Fatal("1000 tenants of k=64 fit in 4096 bytes: MaxBytes not enforced")
	}
}

// TestFarmBadConfig exercises constructor validation.
func TestFarmBadConfig(t *testing.T) {
	u := mustU(t, 10)
	if _, err := NewReservoirFarm[int64](nil, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil universe: %v", err)
	}
	if _, err := NewReservoirFarm(u, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := NewBernoulliFarm(u, 1.5); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("p=1.5: %v", err)
	}
	if _, err := NewReservoirFarm(u, 4, WithShards(0)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("shards=0: %v", err)
	}
	if _, err := NewReservoirFarm(u, 4, WithMaxHotTenants(-1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("maxhot=-1: %v", err)
	}
	if _, err := NewReservoirFarm(u, 4, WithSpillDir("")); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty spill dir: %v", err)
	}
	if _, err := NewReservoirFarm(u, 4, WithVerdicts(System(99))); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad system: %v", err)
	}
}

// TestOfferBatchSteadyStateAllocs pins the zero-alloc claim of the hot
// ingest paths: with every touched tenant hot, neither the single-tenant
// nor the keyed producer lane allocates.
func TestOfferBatchSteadyStateAllocs(t *testing.T) {
	f, err := NewReservoirFarm(mustU(t, 1000), 16, WithShards(4))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	defer f.Close()
	const tenants = 128
	batch := make([]int64, 32)
	for i := range batch {
		batch[i] = int64(i%1000) + 1
	}
	for id := TenantID(1); id <= tenants; id++ {
		if _, err := f.OfferBatch(id, batch); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	id := TenantID(1)
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := f.OfferBatch(id, batch); err != nil {
			t.Fatalf("OfferBatch: %v", err)
		}
		id = id%tenants + 1
	}); avg != 0 {
		t.Fatalf("Farm.OfferBatch steady state: %.1f allocs/op, want 0", avg)
	}
	p := f.NewProducer()
	ids := make([]TenantID, 64)
	xs := make([]int64, 64)
	driver := rng.New(4)
	for i := range ids {
		ids[i] = TenantID(driver.Intn(tenants) + 1)
		xs[i] = int64(driver.Intn(1000)) + 1
	}
	if _, err := p.OfferBatch(ids, xs); err != nil {
		t.Fatalf("producer warmup: %v", err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := p.OfferBatch(ids, xs); err != nil {
			t.Fatalf("producer OfferBatch: %v", err)
		}
	}); avg != 0 {
		t.Fatalf("Producer.OfferBatch steady state: %.1f allocs/op, want 0", avg)
	}
}

// zipfBatches draws n keyed batches of size batch: Zipf(skew) ids over
// tenants 1..tenants with uniform elements of [1, universe].
func zipfBatches(seed uint64, tenants, n, batch int, skew float64, universe int64) ([][]TenantID, [][]int64) {
	r := rng.New(seed)
	z := rng.NewZipf(int64(tenants), skew)
	ids := make([][]TenantID, n)
	xs := make([][]int64, n)
	for i := range ids {
		ids[i] = make([]TenantID, batch)
		xs[i] = make([]int64, batch)
		for j := range ids[i] {
			ids[i][j] = TenantID(z.Draw(r))
			xs[i][j] = 1 + r.Int63n(universe)
		}
	}
	return ids, xs
}

// populateAll offers every tenant 1..tenants one element through p.
func populateAll(tb testing.TB, p *Producer[int64], tenants, batch int) {
	tb.Helper()
	ids := make([]TenantID, 0, batch)
	xs := make([]int64, 0, batch)
	for id := 1; id <= tenants; id++ {
		ids = append(ids, TenantID(id))
		xs = append(xs, int64(id))
		if len(ids) == batch || id == tenants {
			if _, err := p.OfferBatch(ids, xs); err != nil {
				tb.Fatalf("populate: %v", err)
			}
			ids, xs = ids[:0], xs[:0]
		}
	}
}

// TestChurnSteadyStateAllocs pins the zero-alloc claim of the churn path:
// with a hot budget far below the tenant count, Zipf-keyed producer
// batches keep evicting and hydrating tenants, and once the scratch and
// cold buffers have reached their sizes neither allocates, in memory or
// through a spill file. A global query allocates the same number of times
// whether it selects 1/64 of the tenants or all of them.
func TestChurnSteadyStateAllocs(t *testing.T) {
	const tenants, maxHot, batch, batches = 1024, 64, 256, 64
	for _, spill := range []bool{false, true} {
		opts := []Option{WithShards(4), WithMaxHotTenants(maxHot)}
		if spill {
			opts = append(opts, WithSpillDir(t.TempDir()))
		}
		f, err := NewReservoirFarm(mustU(t, 1<<20), 16, opts...)
		if err != nil {
			t.Fatalf("NewReservoirFarm: %v", err)
		}
		p := f.NewProducer()
		populateAll(t, p, tenants, batch)
		ids, xs := zipfBatches(17, tenants, batches, batch, 1.1, 1<<20)
		for i := range ids {
			if _, err := p.OfferBatch(ids[i], xs[i]); err != nil {
				t.Fatalf("warmup: %v", err)
			}
		}
		st0 := f.Stats()
		i := 0
		avg := testing.AllocsPerRun(batches, func() {
			if _, err := p.OfferBatch(ids[i%batches], xs[i%batches]); err != nil {
				t.Fatalf("OfferBatch: %v", err)
			}
			i++
		})
		st := f.Stats()
		if st.Evictions == st0.Evictions || st.Hydrations == st0.Hydrations {
			t.Fatalf("spill=%v: measured runs made %d evictions and %d hydrations, want both > 0",
				spill, st.Evictions-st0.Evictions, st.Hydrations-st0.Hydrations)
		}
		if avg != 0 {
			t.Fatalf("spill=%v: Producer.OfferBatch under churn: %.1f allocs/op, want 0", spill, avg)
		}
		query := func(sel func(TenantID) bool) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := f.GlobalQuantile(0.5, sel); err != nil {
					t.Fatalf("GlobalQuantile: %v", err)
				}
			})
		}
		some := query(func(id TenantID) bool { return id%64 == 0 })
		all := query(nil)
		if some != all {
			t.Fatalf("spill=%v: GlobalQuantile allocs/op %.0f over 1/64 of the tenants, %.0f over all; want equal", spill, some, all)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// BenchmarkProducerChurn measures keyed ingest under churn, the perfbench
// farm workload's shape: 10^4 tenants with a hot budget of 1/8, Zipf(1.1)
// keys and batches of 512. One op is one batch; allocs/op must be 0.
func BenchmarkProducerChurn(b *testing.B) {
	const tenants, batch, batches = 10_000, 512, 256
	u, err := sketch.NewInt64Universe(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewReservoirFarm(u, 16, WithShards(32), WithMaxHotTenants(tenants/8))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	p := f.NewProducer()
	populateAll(b, p, tenants, batch)
	ids, xs := zipfBatches(1, tenants, batches, batch, 1.1, 1<<20)
	for i := range ids {
		if _, err := p.OfferBatch(ids[i], xs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.OfferBatch(ids[i%batches], xs[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGlobalQueries covers the cross-tenant fan-in: sample size/rounds
// accounting, determinism across identical farms, quantiles and top-k on
// a known skew, and the discrepancy verdict in the lossless regime.
func TestGlobalQueries(t *testing.T) {
	const seed, k = 13, 16
	build := func() *Farm[int64] {
		f, err := NewReservoirFarm(mustU(t, 1000), k, WithSeed(seed), WithShards(4), WithVerdicts(Prefixes))
		if err != nil {
			t.Fatalf("NewReservoirFarm: %v", err)
		}
		return f
	}
	fa, fb := build(), build()
	defer fa.Close()
	defer fb.Close()
	driver := rng.New(31)
	total := 0
	for it := 0; it < 100; it++ {
		id := TenantID(driver.Intn(20) + 1)
		batch := make([]int64, driver.Intn(10)+1)
		for i := range batch {
			batch[i] = int64(driver.Intn(100)) + 1
		}
		if _, err := fa.OfferBatch(id, batch); err != nil {
			t.Fatalf("farm A: %v", err)
		}
		if _, err := fb.OfferBatch(id, batch); err != nil {
			t.Fatalf("farm B: %v", err)
		}
		total += len(batch)
	}
	sa, ra, err := fa.GlobalSample(nil)
	if err != nil {
		t.Fatalf("GlobalSample A: %v", err)
	}
	sb, rb, err := fb.GlobalSample(nil)
	if err != nil {
		t.Fatalf("GlobalSample B: %v", err)
	}
	if ra != total || rb != total {
		t.Fatalf("global rounds %d/%d, want %d", ra, rb, total)
	}
	if len(sa) != k || len(sb) != k {
		t.Fatalf("global sample len %d/%d, want %d", len(sa), len(sb), k)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("global sample not deterministic: [%d] %d vs %d", i, sa[i], sb[i])
		}
	}
	// A selector restricting to one tenant reproduces that tenant's state.
	one := TenantID(1)
	sel, rounds, err := fa.GlobalSample(func(id TenantID) bool { return id == one })
	if err == nil {
		wantRounds, _ := fa.Rounds(one)
		if rounds != wantRounds {
			t.Fatalf("selector rounds %d, tenant rounds %d", rounds, wantRounds)
		}
		want, _ := fa.Sample(one)
		if len(sel) != len(want) {
			t.Fatalf("selector sample len %d, tenant %d", len(sel), len(want))
		}
	}
	if _, err := fa.GlobalQuantile(2.0, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("quantile 2.0: %v", err)
	}
	if _, err := fa.GlobalTopK(0, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("topk 0: %v", err)
	}
	if _, _, err := fa.GlobalSample(func(TenantID) bool { return false }); err != nil {
		t.Fatalf("empty selection GlobalSample: %v", err)
	}
	if _, err := fa.GlobalQuantile(0.5, func(TenantID) bool { return false }); !errors.Is(err, ErrNoSample) {
		t.Fatalf("empty selection quantile: %v", err)
	}

	// Lossless regime: one tenant, fewer elements than k. The quantiles,
	// top-k and verdict are then exact.
	fl := build()
	defer fl.Close()
	stream := []int64{10, 20, 20, 20, 30, 40, 50, 60, 70, 80}
	if _, err := fl.OfferBatch(1, stream); err != nil {
		t.Fatalf("lossless offer: %v", err)
	}
	med, err := fl.GlobalQuantile(0.5, nil)
	if err != nil {
		t.Fatalf("median: %v", err)
	}
	if med != 30 {
		t.Fatalf("median %d, want 30", med)
	}
	lo, err := fl.GlobalQuantile(0, nil)
	if err != nil || lo != 10 {
		t.Fatalf("q0 %d err %v, want 10", lo, err)
	}
	hi, err := fl.GlobalQuantile(1, nil)
	if err != nil || hi != 80 {
		t.Fatalf("q1 %d err %v, want 80", hi, err)
	}
	top, err := fl.GlobalTopK(2, nil)
	if err != nil {
		t.Fatalf("topk: %v", err)
	}
	if top[0].Value != 20 || top[0].Count != 3 {
		t.Fatalf("top1 %+v, want value 20 count 3", top[0])
	}
	if top[0].Frac < 0.29 || top[0].Frac > 0.31 {
		t.Fatalf("top1 frac %v, want 0.3", top[0].Frac)
	}
	v, err := fl.GlobalVerdict()
	if err != nil {
		t.Fatalf("verdict: %v", err)
	}
	if v.Err != 0 {
		t.Fatalf("lossless verdict err %v, want 0 (sample == stream)", v.Err)
	}
	if v.StreamLen != len(stream) || v.SampleLen != len(stream) {
		t.Fatalf("verdict sizes %d/%d, want %d", v.StreamLen, v.SampleLen, len(stream))
	}
	// Verdicts not configured.
	fn, err := NewReservoirFarm(mustU(t, 1000), 4, WithShards(1))
	if err != nil {
		t.Fatalf("no-verdict farm: %v", err)
	}
	defer fn.Close()
	if _, err := fn.GlobalVerdict(); !errors.Is(err, ErrNoVerdicts) {
		t.Fatalf("GlobalVerdict without WithVerdicts: %v", err)
	}
}

// TestFarmStats sanity-checks the operational counters.
func TestFarmStats(t *testing.T) {
	f, err := NewReservoirFarm(mustU(t, 100), 4, WithShards(2), WithMaxHotTenants(4), WithTTL(2))
	if err != nil {
		t.Fatalf("NewReservoirFarm: %v", err)
	}
	defer f.Close()
	for id := TenantID(1); id <= 20; id++ {
		if _, err := f.OfferBatch(id, []int64{1, 2, 3}); err != nil {
			t.Fatalf("OfferBatch: %v", err)
		}
	}
	st := f.Stats()
	if st.Tenants != 20 {
		t.Fatalf("tenants %d, want 20", st.Tenants)
	}
	if st.Offered != 60 {
		t.Fatalf("offered %d, want 60", st.Offered)
	}
	if st.Hot+st.Cold+st.Spilled != st.Tenants {
		t.Fatalf("lifecycle partition %d+%d+%d != %d", st.Hot, st.Cold, st.Spilled, st.Tenants)
	}
	if st.Hot > 8 {
		t.Fatalf("hot %d exceeds per-shard bound", st.Hot)
	}
	if st.SlabBytes == 0 {
		t.Fatal("slab bytes 0")
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite hot bound")
	}
	// TTL-based background demotion: advance each shard's op clock by
	// touching one tenant per shard, making the other hot entries stale.
	var touch []TenantID
	seen := make(map[int]bool)
	for id := TenantID(1); id <= 20; id++ {
		if s := f.shardOf(id); !seen[s] {
			seen[s] = true
			touch = append(touch, id)
		}
	}
	for i := 0; i < 5; i++ {
		for _, id := range touch {
			if _, err := f.OfferBatch(id, []int64{1}); err != nil {
				t.Fatalf("touch offer: %v", err)
			}
		}
	}
	demoted := f.EvictIdle()
	if demoted == 0 {
		t.Fatal("EvictIdle demoted nothing despite TTL 2 and stale hot tenants")
	}
	if err := f.Evict(1); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if got := f.Tenants(); got != 20 {
		t.Fatalf("Tenants() %d, want 20", got)
	}
}
