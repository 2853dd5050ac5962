package serve

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/workload"
)

// Layer benchmarks for the serving runtime's per-admission and per-step
// work: pricing an admission, routing an arrival and granting a budgeted
// step's prefill slices. Each builds its state with the runtime's own
// setup and times one call against it.

// hotConfig is BenchmarkServeHotPath's geometry: one replica over one
// unbounded NVMe store, a 1500-chunk corpus, six chunks per request.
func hotConfig() Config {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.MaxBatch, cfg.ChunkPool = 8, 1500
	return cfg
}

// benchCluster returns a set-up cluster whose wave is the first n
// requests w generates, warmed by routing each request and pricing it on
// its node, so the timed calls run against stores in steady state.
func benchCluster(b *testing.B, cfg Config, w workload.Workload, n int) *cluster {
	b.Helper()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	c := newCluster(cfg, w.Generate(n, 7), 0)
	c.setup()
	for i := range c.wave {
		r := &c.wave[i]
		c.serviceTime(c.nodes[c.route(request{ids: r.Chunks}, r.Arrival)], r.Chunks, r.Arrival)
	}
	return c
}

// BenchmarkServiceTime times pricing one admission's prefill against a
// warm store: chunk-key memoisation, tier lookups, miss inserts and the
// scheme's pricing. flat is the hot path's single NVMe tier; tiers3 an
// HBM → RAM → NVMe stack holding a fraction of the corpus above NVMe,
// so lookups promote and the loading controller picks per-tier ratios.
func BenchmarkServiceTime(b *testing.B) {
	tiers3 := hotConfig()
	chunk := tiers3.Spec.KVBytes(tiers3.ChunkTokens)
	tiers3.Tiers = []TierConfig{
		{Device: device.GPUHBM, Capacity: 64 * chunk},
		{Device: device.CPURAM, Capacity: 512 * chunk},
		{Device: device.NVMeSSD},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"flat", hotConfig()}, {"tiers3", tiers3}} {
		b.Run(tc.name, func(b *testing.B) {
			w := workload.Poisson{Rate: 2, Chunks: tc.cfg.chunks()}
			c := benchCluster(b, tc.cfg, w, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &c.wave[i%len(c.wave)]
				c.serviceTime(c.nodes[0], r.Chunks, r.Arrival)
			}
		})
	}
}

// BenchmarkRoute times routing one arrival under each router on
// serve-routed-tiered's geometry: four replicas with HBM/RAM/slow-SSD
// stacks and four tenants over disjoint 48-chunk corpora. shared is one
// node, so it measures the dispatch floor.
func BenchmarkRoute(b *testing.B) {
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		b.Run(router, func(b *testing.B) {
			c := benchCluster(b, routerTestConfig(router), routerTestMix(2), 4096)
			end := c.wave[len(c.wave)-1].Arrival
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Time keeps moving forward past the warm-up, as the
				// affinity router's popularity decay expects.
				r := &c.wave[i%len(c.wave)]
				c.route(request{ids: r.Chunks}, end+float64(i)/2)
			}
		})
	}
}

// benchBatch is an 8-member batch in mid-step: six members prefilling
// with 384–2688 tokens left, two decoding, three tenants. At t=40 under
// sloConfig's 2 s target and 16 s aging bound, the prefillers span all
// three SLO classes: two aged, two late, two feasible.
func benchBatch() []*member {
	arrivals := []float64{10, 15, 39, 20, 30, 39.5, 35, 25}
	batch := make([]*member, len(arrivals))
	for i, at := range arrivals {
		prefTotal := 512 * (1 + i)
		batch[i] = &member{
			req:       request{idx: i, arrival: at, tenant: i % 3},
			prefTotal: prefTotal,
			prefDone:  prefTotal / 4,
			perTok:    1e-4 * float64(1+i%4),
			decoding:  i%4 == 3,
		}
	}
	return batch
}

// BenchmarkAllocPrefill times one chunked-prefill step's grant of the
// prefill budget over benchBatch, in admission order.
func BenchmarkAllocPrefill(b *testing.B) {
	c := newCluster(schedConfig(SchedChunkedPrefill), nil, 0)
	c.resolve()
	batch := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.allocPrefill(batch, 40)
	}
}

// BenchmarkAllocPrefillSLO times the slo policy's grant over benchBatch
// at t=40. The tenants carry unequal risk, so the order sort reads every
// key: class, risk, arrival.
func BenchmarkAllocPrefillSLO(b *testing.B) {
	c := newCluster(sloConfig(), nil, 0)
	c.resolve()
	for t := 0; t < 3; t++ {
		for k := 0; k <= t; k++ {
			c.bumpRisk(t, k == 0)
		}
	}
	batch := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.allocPrefill(batch, 40)
	}
}
