package bench

// E22 measures the multi-tenant sketch farm (package farm): tenant density
// in bytes, steady-state keyed-ingest cost with the whole population hot,
// and the hydration tax when the hot budget is an eighth of the population.
// The paper's Section 1.2 applications (distributed query routing, per-key
// robust samples) need one sampler per logical stream; the farm is the
// serving form of that — a process holding ~10^6 independent reservoir
// states in flat slab slots.

import (
	"runtime"
	"time"

	"robustsample/farm"
	"robustsample/internal/rng"
	"robustsample/sketch"
)

// Farm experiment parameters: reservoir capacity per tenant, farm shard
// count, the element universe tenants sample over, and the keyed batch
// size of the ingest loops.
const (
	farmK        = 16
	farmShards   = 32
	farmUniverse = int64(1 << 20)
	farmBatch    = 512
)

// tenantCounts returns the tenant ladder of the farm experiment E22:
// cfg.Tenants pins a single point, otherwise the reference ladder
// {1e3, 1e5, 1e6} scaled by cfg.Scale (floor 64, duplicates collapsed).
func (c Config) tenantCounts() []int {
	if c.Tenants > 0 {
		return []int{c.Tenants}
	}
	ladder := []int{1_000, 100_000, 1_000_000}
	uniq := make([]int, 0, len(ladder))
	for _, n := range ladder {
		v := c.scaled(n, 64)
		if len(uniq) == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// tenantSkew returns the Zipf exponent of the tenant id distribution; 0
// (unset) uses the reference skew 1.1 — hot heads, a long cold tail, the
// shape that exercises both the all-hot fast path and eviction churn.
func (c Config) tenantSkew() float64 {
	if c.TenantSkew > 0 {
		return c.TenantSkew
	}
	return 1.1
}

// farmPoint is one measured tenant-count point of the E22 ladder.
type farmPoint struct {
	tenants        int
	bytesPerTenant float64
	tenantsPerGB   float64
	hotNs          float64 // steady-state ns/elem, whole population hot
	hotAllocs      uint64  // heap allocations per element on that path
	hotBytes       uint64  // heap bytes per element on that path
	churnNs        float64 // ns/elem with hot budget = population/8
	churnAllocs    uint64  // heap allocations per element on that path
	hydrations     uint64
	hydrateP99     time.Duration
}

// measureFarmPoint builds, populates and measures one farm of the given
// tenant count. Three arms, every workload pre-generated outside the
// measured windows:
//
//   - memory: heap growth attributable to the fully populated farm
//     (slab slots, entry table and index included), inverted into
//     tenants/GB;
//   - hot: steady-state Zipf-keyed Producer ingest with every tenant hot —
//     the path the hotpath annotations pin at zero allocations;
//   - churn: the same workload against a farm whose hot budget is an
//     eighth of the population, so the Zipf tail continually evicts and
//     hydrates; reports the allocation rate after populate, the hydration
//     count and the stall p99.
func measureFarmPoint(cfg Config, tenants int) farmPoint {
	u := must(sketch.NewInt64Universe(farmUniverse))
	pt := farmPoint{tenants: tenants}

	hotOps := cfg.scaled(1<<20, 1<<14)
	churnOps := cfg.scaled(1<<18, 1<<13)
	r := rng.NewWithStream(cfg.Seed, 22)
	z := rng.NewZipf(int64(tenants), cfg.tenantSkew())
	hotIDs := make([]farm.TenantID, hotOps)
	hotXs := make([]int64, hotOps)
	for i := range hotIDs {
		hotIDs[i] = farm.TenantID(z.Draw(r))
		hotXs[i] = r.Int63n(farmUniverse) + 1
	}
	churnIDs := make([]farm.TenantID, churnOps)
	churnXs := make([]int64, churnOps)
	for i := range churnIDs {
		churnIDs[i] = farm.TenantID(z.Draw(r))
		churnXs[i] = r.Int63n(farmUniverse) + 1
	}
	createIDs := make([]farm.TenantID, tenants)
	createXs := make([]int64, tenants)
	for i := range createIDs {
		createIDs[i] = farm.TenantID(i + 1)
		createXs[i] = int64(i%int(farmUniverse)) + 1
	}
	populate := func(p *farm.Producer[int64]) {
		for off := 0; off < tenants; off += farmBatch {
			end := off + farmBatch
			if end > tenants {
				end = tenants
			}
			must(p.OfferBatch(createIDs[off:end], createXs[off:end]))
		}
	}

	// Memory arm: heap before vs after building and populating the farm.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f := must(farm.NewReservoirFarm(u, farmK, farm.WithSeed(cfg.Seed), farm.WithShards(farmShards)))
	p := f.NewProducer()
	populate(p)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		pt.bytesPerTenant = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(tenants)
		pt.tenantsPerGB = 1e9 / pt.bytesPerTenant
	}

	// Hot arm: a short unmeasured pass sizes the producer scratch, then the
	// measured pass runs with every tenant resident.
	warm := 8 * farmBatch
	if warm > hotOps {
		warm = hotOps
	}
	for off := 0; off < warm; off += farmBatch {
		must(p.OfferBatch(hotIDs[off:off+farmBatch], hotXs[off:off+farmBatch]))
	}
	var b0, b1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&b0)
	start := time.Now()
	for off := 0; off < hotOps; off += farmBatch {
		end := off + farmBatch
		if end > hotOps {
			end = hotOps
		}
		must(p.OfferBatch(hotIDs[off:end], hotXs[off:end]))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&b1)
	pt.hotNs = float64(elapsed.Nanoseconds()) / float64(hotOps)
	pt.hotAllocs = (b1.Mallocs - b0.Mallocs) / uint64(hotOps)
	pt.hotBytes = (b1.TotalAlloc - b0.TotalAlloc) / uint64(hotOps)
	f.Close()

	// Churn arm: the hot budget forces the Zipf tail through the
	// evict/hydrate cycle on every revisit.
	maxHot := tenants / 8
	if maxHot < 64 {
		maxHot = 64
	}
	g := must(farm.NewReservoirFarm(u, farmK,
		farm.WithSeed(cfg.Seed), farm.WithShards(farmShards), farm.WithMaxHotTenants(maxHot)))
	gp := g.NewProducer()
	populate(gp)
	var c0, c1 runtime.MemStats
	runtime.ReadMemStats(&c0)
	start = time.Now()
	for off := 0; off < churnOps; off += farmBatch {
		end := off + farmBatch
		if end > churnOps {
			end = churnOps
		}
		must(gp.OfferBatch(churnIDs[off:end], churnXs[off:end]))
	}
	pt.churnNs = float64(time.Since(start).Nanoseconds()) / float64(churnOps)
	runtime.ReadMemStats(&c1)
	pt.churnAllocs = (c1.Mallocs - c0.Mallocs) / uint64(churnOps)
	st := g.Stats()
	pt.hydrations = st.Hydrations
	pt.hydrateP99 = st.HydrateP99
	g.Close()
	return pt
}

// ExpE22 sweeps the tenant ladder and reports density, hot-path cost and
// hydration stalls per point.
func ExpE22(cfg Config) *Table {
	t := &Table{
		ID:     "E22",
		Title:  "Multi-tenant sketch farm: tenant density, keyed ingest, hydration stalls",
		Source: "Section 1.2 applications served at scale; DESIGN.md BENCH 10",
		Columns: []string{"tenants", "skew", "bytes/tenant", "tenants/GB",
			"hot ns/elem", "hot allocs/elem", "churn allocs/elem", "churn ns/elem", "hydrations", "hydrate-p99"},
	}
	for _, n := range cfg.tenantCounts() {
		pt := measureFarmPoint(cfg, n)
		t.AddRow(pt.tenants, cfg.tenantSkew(), pt.bytesPerTenant, pt.tenantsPerGB,
			pt.hotNs, pt.hotAllocs, pt.churnAllocs, pt.churnNs, pt.hydrations, pt.hydrateP99.String())
	}
	t.Notes = append(t.Notes,
		"hot ns/elem should stay near-flat up the ladder: tenant state is flat slab slots, so scale adds map lookups, not pointer chasing",
		"hot allocs/elem and churn allocs/elem must both be 0 — keyed ingest, eviction and hydration are hotpath-annotated and allocation-free at steady state",
		"the churn arm caps hot tenants at population/8: churn ns/elem pays the encode/decode hydration tax and hydrate-p99 is the stall's log2-bucket upper bound",
		"wall-clock cells vary run to run; the claims are the shape, the allocation count and the byte accounting",
	)
	return t
}

// MeasureFarm measures the farm keyed-ingest benchmark at every tenant
// count of the ladder and returns one FarmIngest entry per point: ns/op is
// the steady-state hot-path cost per element with the whole population
// resident, and allocs/op its heap allocation rate (0 at steady state).
// Tenant density and the churn arm's hydration stall p99 ride along in the
// params block. This is the tenant-scaling curve of the perf trajectory.
func MeasureFarm(cfg Config) []BenchResult {
	results := make([]BenchResult, 0, 3)
	for _, n := range cfg.tenantCounts() {
		pt := measureFarmPoint(cfg, n)
		results = append(results, BenchResult{
			Name:        "FarmIngest",
			NsPerOp:     int64(pt.hotNs),
			AllocsPerOp: pt.hotAllocs,
			BytesPerOp:  pt.hotBytes,
			Params: BenchParams{
				Seed:         cfg.Seed,
				Trials:       cfg.trials(),
				Scale:        cfg.Scale,
				Workers:      cfg.Workers,
				Tenants:      pt.tenants,
				TenantSkew:   cfg.tenantSkew(),
				TenantsPerGB: pt.tenantsPerGB,
				HydrateP99Ns: pt.hydrateP99.Nanoseconds(),
			},
		})
	}
	return results
}
