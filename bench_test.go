// Package repro's root benchmark harness: one benchmark per reproduced
// figure (each iteration regenerates a reduced-size version of the
// figure's table) plus micro-benchmarks of the core primitives and
// ablation benches for the design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/blend"
	"repro/internal/chunk"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/retrieval"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/timing"
	"repro/internal/workload"
)

// ---- Figure regenerators ------------------------------------------------

func BenchmarkFig02QualityVsChunks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig02(3) == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig06AttentionDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig06() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig07DeviationDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig07() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig08LayerCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig08() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig10Pipelining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig10() == nil || experiments.Fig10b() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig12QualityAndTTFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig12(3) == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig13RAGBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig13(3) == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig14ServingSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig14(300) == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig15Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig15() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig16RatioSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig16(2) == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig17StorageDevices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig17(3) == nil {
			b.Fatal("nil table")
		}
	}
}

// ---- Core-primitive micro-benchmarks -------------------------------------

// benchInput builds one fused RAG request against the constructed model.
func benchInput(b *testing.B) (blend.Input, *qamodel.Vocab) {
	b.Helper()
	m, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases = 1
	cfg.ChunksPerCase = 6
	cfg.FactsPerChunk = 6
	ds := dataset.Generate(v, cfg)
	c := ds.Cases[0]
	in := blend.Input{Model: m, SuffixTokens: c.Query}
	for _, ch := range c.Chunks {
		in.ChunkTokens = append(in.ChunkTokens, ch)
		in.Chunks = append(in.Chunks, m.Prefill(ch, 0, false).Cache)
	}
	return in, v
}

func BenchmarkFusorBlend(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{
			Mode: blend.ModeBlend, RecomputeRatio: 0.15,
			SelectionLayer: qamodel.SelectionLayer,
		})
	}
}

func BenchmarkFusorFullRecompute(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{Mode: blend.ModeFullRecompute})
	}
}

func BenchmarkFusorFullReuse(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{Mode: blend.ModeFullReuse})
	}
}

func BenchmarkPrefill512(b *testing.B) {
	m := model.NewRandom(model.Mistral7BSim, 1)
	g := tensor.NewRNG(2)
	toks := make([]int, 512)
	for i := range toks {
		toks[i] = g.Intn(m.Cfg.Vocab)
	}
	// A model indexes its weights on its first forward pass, once. A short
	// pass here keeps that out of the timed loop, so a -benchtime=1x run
	// reports the same per-prefill cost as a longer one.
	m.Prefill(toks[:1], 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prefill(toks, 0, false)
	}
}

func BenchmarkKVCacheSerialise(b *testing.B) {
	m := model.NewRandom(model.Mistral7BSim, 1)
	c := m.Prefill(make([]int, 128), 0, false).Cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkKVStoreZipf(b *testing.B) {
	s := kvstore.MustTiered([]kvstore.Tier{{Device: device.NVMeSSD, Capacity: 1 << 30}}, kvstore.LRU)
	g := tensor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := chunk.Hash("bench", []int{sim.Zipf(g, 4096, 0.8)})
		if _, _, ok := s.Get(id); !ok {
			s.Put(id, kvstore.Bytes(1<<20)) //nolint:errcheck
		}
	}
}

func BenchmarkRetrievalTopK(b *testing.B) {
	_, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases = 1
	cfg.ChunksPerCase = 64
	ds := dataset.Generate(v, cfg)
	r := retrieval.NewRetriever(128, ds.Cases[0].ChunkTexts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TopK(ds.Cases[0].QueryText, 6)
	}
}

// servePoisson runs the first n requests of a Poisson stream at rate,
// drawn from the config's sampling fields.
func servePoisson(b *testing.B, cfg serve.Config, rate float64, n, warmup int, seed int64) serve.Result {
	w := workload.Poisson{Rate: rate, Chunks: workload.Chunks{
		Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}}
	res, err := serve.RunWorkload(cfg, w, n, warmup, seed)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkServingStep(b *testing.B) {
	cfg := serve.Config{
		Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Device: device.NVMeSSD, ChunkPool: 500, ChunksPerRequest: 6,
		ChunkTokens: 512, QueryTokens: 32, Skew: 0.8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePoisson(b, cfg, 0.5, 200, 50, int64(i))
	}
}

// BenchmarkServeReplicas sweeps the replica count of the concurrent
// serving runtime at a fixed overload, reporting the sustained
// completion rate — the throughput baseline future scaling PRs compare
// against.
func BenchmarkServeReplicas(b *testing.B) {
	for _, replicas := range []int{1, 2, 4, 8} {
		replicas := replicas
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := serve.Config{
				Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
				Device: device.NVMeSSD, Replicas: replicas, MaxBatch: 4,
				ChunkPool: 500, ChunksPerRequest: 6, ChunkTokens: 512,
				QueryTokens: 32, Skew: 0.8,
			}
			var tput float64
			for i := 0; i < b.N; i++ {
				res := servePoisson(b, cfg, 8*float64(replicas), 400, 100, 42)
				tput = res.Throughput
			}
			b.ReportMetric(tput, "req/s")
		})
	}
}

// BenchmarkServeTiered compares KV placement hierarchies at a fixed load
// and equal total capacity, reporting mean TTFT — the tiered-placement
// counterpart of BenchmarkServeReplicas.
func BenchmarkServeTiered(b *testing.B) {
	spec := timing.Mistral7B
	total := int64(250) * spec.KVBytes(512)
	stacks := []struct {
		name  string
		tiers []serve.TierConfig
	}{
		{"nvme-only", []serve.TierConfig{
			{Device: device.NVMeSSD, Capacity: total},
		}},
		{"ram+nvme", []serve.TierConfig{
			{Device: device.CPURAM, Capacity: total / 4},
			{Device: device.NVMeSSD, Capacity: total - total/4},
		}},
		{"hbm+ram+nvme", []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: total / 8},
			{Device: device.CPURAM, Capacity: total / 4},
			{Device: device.NVMeSSD, Capacity: total - total/8 - total/4},
		}},
	}
	for _, stack := range stacks {
		stack := stack
		b.Run(stack.name, func(b *testing.B) {
			cfg := serve.Config{
				Spec: spec, Scheme: baselines.CacheBlend, Ratio: 0.15,
				Device: device.NVMeSSD, Tiers: stack.tiers,
				ChunkPool: 500, ChunksPerRequest: 6, ChunkTokens: 512,
				QueryTokens: 32, Skew: 0.9,
			}
			var ttft float64
			for i := 0; i < b.N; i++ {
				res := servePoisson(b, cfg, 0.5, 400, 100, 42)
				ttft = res.MeanTTFT
			}
			b.ReportMetric(ttft*1000, "ttft-ms")
		})
	}
}

// BenchmarkServeWorkloads runs the serving simulation under each arrival
// generator at equal mean rate, reporting p95 TTFT — the workload
// counterpart of BenchmarkServeReplicas/BenchmarkServeTiered.
func BenchmarkServeWorkloads(b *testing.B) {
	cfg := serve.Config{
		Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Device: device.NVMeSSD, ChunkPool: 500, ChunksPerRequest: 6,
		ChunkTokens: 512, QueryTokens: 32, Skew: 0.8,
	}
	chunks := workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}
	const rate = 1.0
	loads := []struct {
		name string
		w    workload.Workload
	}{
		{"poisson", workload.Poisson{Rate: rate, Chunks: chunks}},
		{"bursty", workload.Bursty{Rate: rate, Burst: 8, Chunks: chunks}},
		{"diurnal", workload.Diurnal{Rate: rate, Amplitude: 0.8, Chunks: chunks}},
		{"tenants3", workload.TenantMix(3, rate, chunks, 100, workload.Decode{})},
	}
	for _, load := range loads {
		load := load
		b.Run(load.name, func(b *testing.B) {
			var p95 float64
			for i := 0; i < b.N; i++ {
				res, err := serve.RunWorkload(cfg, load.w, 400, 100, 42)
				if err != nil {
					b.Fatal(err)
				}
				p95 = res.P95TTFT
			}
			b.ReportMetric(p95*1000, "p95-ttft-ms")
		})
	}
}

// BenchmarkServeDecode runs the two-phase prefill+decode runtime across
// generation lengths, reporting mean TBT — the decode-phase counterpart
// of BenchmarkServeWorkloads. Longer generations mean many more simulated
// steps (and per-token KV store writes) per request, so this also tracks
// the simulator's own cost per generated token.
func BenchmarkServeDecode(b *testing.B) {
	cfg := serve.Config{
		Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Device: device.NVMeSSD, MaxBatch: 8, ChunkPool: 500, ChunksPerRequest: 6,
		ChunkTokens: 512, QueryTokens: 32, Skew: 0.8,
	}
	chunks := workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}
	for _, mean := range []float64{16, 64, 256} {
		mean := mean
		b.Run(fmt.Sprintf("decode%d", int(mean)), func(b *testing.B) {
			w := workload.Poisson{Rate: 0.5, Chunks: chunks, Decode: workload.Decode{Mean: mean}}
			var tbt float64
			for i := 0; i < b.N; i++ {
				res, err := serve.RunWorkload(cfg, w, 300, 75, 42)
				if err != nil {
					b.Fatal(err)
				}
				tbt = res.MeanTBT
			}
			b.ReportMetric(tbt*1000, "tbt-ms")
		})
	}
}

// BenchmarkServeSched runs the decode-heavy bursty scenario under each
// scheduling policy, reporting p95 TBT — the policy counterpart of
// BenchmarkServeDecode. Chunked prefill runs many more (much shorter)
// steps per request, so this also tracks the budgeted scheduler's own
// simulation cost.
func BenchmarkServeSched(b *testing.B) {
	cfg := serve.Config{
		Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Device: device.NVMeSSD, MaxBatch: 8, ChunkPool: 500, ChunksPerRequest: 6,
		ChunkTokens: 512, QueryTokens: 32, Skew: 0.8,
	}
	w := workload.Bursty{Rate: 0.5, Burst: 8,
		Chunks: workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew},
		Decode: workload.Decode{Mean: 64}}
	for _, sched := range []string{serve.SchedFIFO, serve.SchedChunkedPrefill, serve.SchedDecodePriority} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			c := cfg
			c.Sched = sched
			var p95 float64
			for i := 0; i < b.N; i++ {
				res, err := serve.RunWorkload(c, w, 300, 75, 42)
				if err != nil {
					b.Fatal(err)
				}
				p95 = res.P95TBT
			}
			b.ReportMetric(p95*1000, "p95-tbt-ms")
		})
	}
}

// BenchmarkServePrefetch runs the tiered bursty scenario under each
// tier-prefetch policy, reporting tier-read stall — the loader
// counterpart of BenchmarkServeSched. The active policies run loader
// processes and an in-flight transfer table on top of the same schedule,
// so this also tracks the prefetch machinery's own simulation cost.
func BenchmarkServePrefetch(b *testing.B) {
	spec := timing.Mistral7B
	total := int64(60) * spec.KVBytes(512)
	cfg := serve.Config{
		Spec: spec, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Replicas: 2, MaxBatch: 3, ChunkPool: 150, ChunksPerRequest: 6,
		ChunkTokens: 512, QueryTokens: 32, Skew: 0.9,
		Tiers: []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: total / 6},
			{Device: device.CPURAM, Capacity: total / 3},
			{Device: device.NVMeSSD, Capacity: total - total/6 - total/3},
		},
	}
	w := workload.Bursty{Rate: 0.5, Burst: 24,
		Chunks: workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest,
			Skew: cfg.Skew, DriftPeriod: 60}}
	for _, policy := range []string{serve.PrefetchOff, serve.PrefetchOnEnqueue, serve.PrefetchPredictive} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			c := cfg
			c.PrefetchPolicy = policy
			var stall float64
			for i := 0; i < b.N; i++ {
				res, err := serve.RunWorkload(c, w, 300, 100, 42)
				if err != nil {
					b.Fatal(err)
				}
				stall = res.TierStallTime
			}
			b.ReportMetric(stall*1000, "tier-stall-ms")
		})
	}
}

func BenchmarkServeRouted(b *testing.B) {
	spec := timing.Mistral7B
	chunkBytes := spec.KVBytes(512)
	cfg := serve.Config{
		Spec: spec, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Replicas: 4, MaxBatch: 4, ChunkTokens: 512, QueryTokens: 128,
		Tiers: []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: 8 * chunkBytes},
			{Device: device.CPURAM, Capacity: 48 * chunkBytes},
			{Device: device.SlowSSD},
		},
	}
	mix := make([]workload.Workload, 4)
	for i := range mix {
		mix[i] = workload.Bursty{Rate: 2.0, Burst: 4,
			Chunks: workload.Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48}}
	}
	w := workload.MultiTenant{Tenants: mix}
	// affinity-predictive adds the loaders: transfers on per-replica
	// stacks, the in-flight joins and the completions that promote.
	for _, bc := range []struct{ name, router, prefetch string }{
		{serve.RouterShared, serve.RouterShared, ""},
		{serve.RouterHash, serve.RouterHash, ""},
		{serve.RouterAffinity, serve.RouterAffinity, ""},
		{"affinity-predictive", serve.RouterAffinity, serve.PrefetchPredictive},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			c := cfg
			c.Router, c.PrefetchPolicy = bc.router, bc.prefetch
			var ttft float64
			for i := 0; i < b.N; i++ {
				res, err := serve.RunWorkload(c, w, 300, 50, 42)
				if err != nil {
					b.Fatal(err)
				}
				ttft = res.MeanTTFT
			}
			b.ReportMetric(ttft*1000, "ttft-ms")
		})
	}
}

// BenchmarkServeFailover is the routed scenario under membership churn:
// one replica killed mid-run (its queues drain back through the router)
// and a cold replica joined later. The ~37 s stream puts both events in
// the measured window, so the number prices the kill drain, the ring
// surgery and the joined node's spin-up on top of routing itself.
func BenchmarkServeFailover(b *testing.B) {
	spec := timing.Mistral7B
	chunkBytes := spec.KVBytes(512)
	cfg := serve.Config{
		Spec: spec, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Replicas: 4, MaxBatch: 4, ChunkTokens: 512, QueryTokens: 128,
		Tiers: []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: 8 * chunkBytes},
			{Device: device.CPURAM, Capacity: 48 * chunkBytes},
			{Device: device.SlowSSD},
		},
		Events: []serve.MembershipEvent{{At: 15, Kill: 1}, {At: 26, Join: 1}},
	}
	mix := make([]workload.Workload, 4)
	for i := range mix {
		mix[i] = workload.Bursty{Rate: 2.0, Burst: 4,
			Chunks: workload.Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48}}
	}
	w := workload.MultiTenant{Tenants: mix}
	for _, policy := range []string{serve.RouterShared, serve.RouterHash, serve.RouterAffinity} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			c := cfg
			c.Router = policy
			var recovery float64
			for i := 0; i < b.N; i++ {
				res, err := serve.RunWorkload(c, w, 300, 50, 42)
				if err != nil {
					b.Fatal(err)
				}
				recovery = res.RecoveryTime
			}
			b.ReportMetric(recovery, "recovery-s")
		})
	}
}

// BenchmarkServeHotPath is the macro allocation benchmark: one iteration
// pushes 100k requests (with a short decode tail each, so the per-token
// store-update path is on the clock too) through the full serving
// runtime on a single shared store. At this scale the harness cost is
// noise and ns/op tracks the simulator's per-request hot path — arrival,
// service-time lookup, batch stepping, per-token KV writes, retirement —
// which is exactly what the allocation work targets; allocs/op here is
// the whole-run figure the CI gate watches. The sim-req/s metric is the
// interactive-speed headline: simulated requests per wall-clock second.
func BenchmarkServeHotPath(b *testing.B) {
	const requests = 100_000
	cfg := serve.Config{
		Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Device: device.NVMeSSD, MaxBatch: 8, ChunkPool: 1500, ChunksPerRequest: 6,
		ChunkTokens: 512, QueryTokens: 32, Skew: 0.8,
	}
	chunks := workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}
	w := workload.Poisson{Rate: 2.0, Chunks: chunks, Decode: workload.Decode{Mean: 4}}
	b.ReportAllocs()
	var tput float64
	for i := 0; i < b.N; i++ {
		res, err := serve.RunWorkload(cfg, w, requests, requests/4, 42)
		if err != nil {
			b.Fatal(err)
		}
		tput = res.Throughput
	}
	_ = tput
	b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds(), "sim-req/s")
}

// BenchmarkServeClosedDecode runs the repo benchmark's serve-closed-decode
// workload (bench/) at 1,000 requests: a closed loop of 3 tenants × 8
// clients issuing long generations (mean 128 tokens) under the
// deadline-aware slo scheduler, one replica over one NVMe store. It is
// the gated macro that drives a closed loop — a client process per
// completion, slo min-pops — and with ~100 decode steps per request it
// times the per-token path: each generated token's KV append and TBT
// sample. sim-req/s is simulated requests per wall-clock second.
func BenchmarkServeClosedDecode(b *testing.B) {
	const requests = 1000
	cfg := serve.Config{
		Spec: timing.Mistral7B, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Device: device.NVMeSSD, MaxBatch: 8, ChunkTokens: 512, QueryTokens: 32,
		Sched: serve.SchedSLO, SLOTTFT: 2, SLOTBT: 0.05,
	}
	w := workload.ClosedLoop{Tenants: 3, Clients: 8, Think: 2,
		Chunks: workload.Chunks{Pool: 1500, PerRequest: 6, Skew: 0.8}, Decode: workload.Decode{Mean: 128}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := serve.RunWorkload(cfg, w, requests, requests/4, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds(), "sim-req/s")
}

// ---- Ablation benches (DESIGN.md design-choice list) ---------------------

func BenchmarkAblationGradualFilterOn(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{
			Mode: blend.ModeBlend, RecomputeRatio: 0.15,
			SelectionLayer: qamodel.SelectionLayer,
		})
	}
}

func BenchmarkAblationGradualFilterOff(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{
			Mode: blend.ModeBlend, RecomputeRatio: 0.15,
			SelectionLayer: qamodel.SelectionLayer, DisableGradualFilter: true,
		})
	}
}

func BenchmarkAblationRandomSelection(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{
			Mode: blend.ModeBlend, RecomputeRatio: 0.15,
			SelectionLayer:  qamodel.SelectionLayer,
			RandomSelection: true, RandomSeed: int64(i),
		})
	}
}

func BenchmarkAblationNoReposition(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend.Fuse(in, blend.Options{Mode: blend.ModeFullReuse, DisableReposition: true})
	}
}

func BenchmarkAblationEvictionLRU(b *testing.B) {
	benchEviction(b, kvstore.LRU)
}

func BenchmarkAblationEvictionFIFO(b *testing.B) {
	benchEviction(b, kvstore.FIFO)
}

func benchEviction(b *testing.B, p kvstore.Policy) {
	b.Helper()
	s := kvstore.MustTiered([]kvstore.Tier{{Device: device.NVMeSSD, Capacity: 64 << 20}}, p)
	g := tensor.NewRNG(7)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := chunk.Hash("bench", []int{sim.Zipf(g, 1024, 0.9)})
		if _, _, ok := s.Get(id); ok {
			hits++
		} else {
			s.Put(id, kvstore.Bytes(1<<20)) //nolint:errcheck
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-rate")
}

func BenchmarkAblationPipeliningOn(b *testing.B) {
	spec := timing.Yi34B
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += spec.TTFT(0.15, 4096, device.NVMeSSD, true)
	}
	_ = sink
}

func BenchmarkAblationPipeliningOff(b *testing.B) {
	spec := timing.Yi34B
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += spec.TTFT(0.15, 4096, device.NVMeSSD, false)
	}
	_ = sink
}

func BenchmarkEnginePipelined(b *testing.B) {
	benchEngine(b, true)
}

func BenchmarkEngineSequential(b *testing.B) {
	benchEngine(b, false)
}

func benchEngine(b *testing.B, pipelined bool) {
	b.Helper()
	m, v := qamodel.Build()
	in, _ := benchInput(b)
	_ = v
	req := engine.Request{
		Chunks: in.Chunks, ChunkTokens: in.ChunkTokens, SuffixTokens: in.SuffixTokens,
	}
	cfg := engine.Config{
		Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.15,
		SelectionLayer: qamodel.SelectionLayer, Pipelined: pipelined,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Run(req); err != nil {
			b.Fatal(err)
		}
	}
}
