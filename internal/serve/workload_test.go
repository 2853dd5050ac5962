package serve

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/timing"
	"repro/internal/workload"
)

func testWorkloadChunks(cfg Config) workload.Chunks {
	return workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}
}

// TestTraceReplayReproducesResult is the record/replay acceptance check:
// a bursty multi-replica run, exported through the JSONL trace format and
// replayed, must reproduce the generating run's Result field for field.
func TestTraceReplayReproducesResult(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Replicas = 2
	cfg.MaxBatch = 3
	cfg.StoreCapacity = int64(80) * cfg.Spec.KVBytes(cfg.ChunkTokens)
	w := workload.Bursty{Rate: 1.5, Burst: 8, Chunks: testWorkloadChunks(cfg)}
	const n, warmup, seed = 400, 100, 33

	orig, err := RunWorkload(cfg, w, n, warmup, seed)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := workload.Record(&buf, w.Generate(n, seed)); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunWorkload(cfg, workload.Trace{Label: "t", Reqs: reqs}, n, warmup, 999 /* seed must not matter */)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, replay) {
		t.Fatalf("trace replay drifted from generating run:\n%+v\n%+v", orig, replay)
	}
}

// TestBurstsInflateTailLatency: equal mean rate, same seed — the bursty
// stream's p95 TTFT must clearly exceed the Poisson stream's.
func TestBurstsInflateTailLatency(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	ch := testWorkloadChunks(cfg)
	const rate = 1.2
	smooth, err := RunWorkload(cfg, workload.Poisson{Rate: rate, Chunks: ch}, 600, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := RunWorkload(cfg, workload.Bursty{Rate: rate, Burst: 12, Chunks: ch}, 600, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bursty.P95TTFT < 2*smooth.P95TTFT {
		t.Fatalf("bursty p95 %.3f not clearly above poisson p95 %.3f at equal mean rate",
			bursty.P95TTFT, smooth.P95TTFT)
	}
}

// TestPerTenantStats: a multi-tenant mix reports a per-tenant breakdown
// consistent with the aggregate, ordered by tenant; single-tenant runs
// report none.
func TestPerTenantStats(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.StoreCapacity = int64(60) * cfg.Spec.KVBytes(cfg.ChunkTokens)
	m := workload.TenantMix(3, 1.0, workload.Chunks{Pool: 150, PerRequest: 6, Skew: 0.9}, 80, workload.Decode{})
	res, err := RunWorkload(cfg, m, 600, 150, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("want 3 tenant entries, got %+v", res.Tenants)
	}
	total := 0
	for i, tu := range res.Tenants {
		if tu.Tenant != i {
			t.Fatalf("tenant entries out of order: %+v", res.Tenants)
		}
		if tu.Requests == 0 {
			t.Fatalf("tenant %d completed no requests", i)
		}
		if tu.MeanTTFT <= 0 || tu.P95TTFT < tu.MeanTTFT/2 {
			t.Fatalf("tenant %d TTFT stats implausible: %+v", i, tu)
		}
		if tu.HitRate < 0 || tu.HitRate > 1 || tu.Lookups == 0 {
			t.Fatalf("tenant %d hit stats implausible: %+v", i, tu)
		}
		total += tu.Requests
	}
	if total != res.Requests {
		t.Fatalf("tenant requests sum to %d, aggregate %d", total, res.Requests)
	}

	solo := runPoisson(t, baseConfig(baselines.CacheBlend), 0.5, 300, 100, 14)
	if solo.Tenants != nil {
		t.Fatalf("single-tenant run grew a tenant breakdown: %+v", solo.Tenants)
	}
}

// TestSkewSeparatesTenantHitRates: with a tight shared store, the
// head-heavy tenant should enjoy a higher hit rate than the near-uniform
// one — the per-tenant telemetry the breakdown exists to expose.
func TestSkewSeparatesTenantHitRates(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.StoreCapacity = int64(40) * cfg.Spec.KVBytes(cfg.ChunkTokens)
	m := workload.MultiTenant{Tenants: []workload.Workload{
		workload.Poisson{Rate: 0.5, Chunks: workload.Chunks{Pool: 150, PerRequest: 6, Skew: 0.1}},
		workload.Poisson{Rate: 0.5, Chunks: workload.Chunks{Pool: 150, PerRequest: 6, Skew: 1.4, Offset: 150}},
	}}
	res, err := RunWorkload(cfg, m, 900, 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("want 2 tenants, got %+v", res.Tenants)
	}
	uniform, skewed := res.Tenants[0], res.Tenants[1]
	if skewed.HitRate <= uniform.HitRate {
		t.Fatalf("skewed tenant hit rate %.2f should beat uniform tenant's %.2f",
			skewed.HitRate, uniform.HitRate)
	}
}

// TestRunWorkloadValidation covers the error paths that used to panic
// deep inside sim, with recognisable messages.
func TestRunWorkloadValidation(t *testing.T) {
	good := baseConfig(baselines.CacheBlend)
	ch := testWorkloadChunks(good)
	w := workload.Poisson{Rate: 1, Chunks: ch}

	mut := func(f func(*Config)) Config { c := good; f(&c); return c }
	cases := []struct {
		name string
		cfg  Config
		w    workload.Workload
		n    int
		warm int
		want string
	}{
		{"zero chunk pool", good, workload.Poisson{Rate: 1, Chunks: workload.Chunks{Pool: 0, PerRequest: 6}}, 100, 10, "chunk pool"},
		{"negative skew", good, workload.Poisson{Rate: 1, Chunks: workload.Chunks{Pool: 10, PerRequest: 6, Skew: -1}}, 100, 10, "skew"},
		{"zero rate", good, workload.Poisson{Rate: 0, Chunks: ch}, 100, 10, "rate"},
		{"n below warmup", good, w, 100, 100, "warmup"},
		{"negative warmup", good, w, 100, -1, "warmup"},
		{"zero n", good, w, 0, 0, "at least one request"},
		{"bad scheme", mut(func(c *Config) { c.Scheme = baselines.MapReduce }), w, 100, 10, "not a serving mode"},
		{"zero chunk tokens", mut(func(c *Config) { c.ChunkTokens = 0 }), w, 100, 10, "chunk tokens"},
		{"bad ratio", mut(func(c *Config) { c.Ratio = 1.5 }), w, 100, 10, "ratio"},
		{"nan ratio", mut(func(c *Config) { c.Ratio = math.NaN() }), w, 100, 10, "ratio"},
		{"nan skew", mut(func(c *Config) { c.Skew = math.NaN() }), w, 100, 10, "skew"},
		{"infinite skew", mut(func(c *Config) { c.Skew = math.Inf(1) }), w, 100, 10, "skew"},
		{"no spec", mut(func(c *Config) { c.Spec = timing.Spec{} }), w, 100, 10, "spec"},
		{"negative replicas", mut(func(c *Config) { c.Replicas = -2 }), w, 100, 10, "replicas"},
		{"no device", mut(func(c *Config) { c.Device = device.Device{} }), w, 100, 10, "device"},
		{"unbounded middle tier", mut(func(c *Config) {
			c.Tiers = []TierConfig{{Device: device.CPURAM, Capacity: 0}, {Device: device.NVMeSSD}}
		}), w, 100, 10, "bottom tier"},
		{"empty trace", good, workload.Trace{}, 100, 10, "no requests"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RunWorkload(c.cfg, c.w, c.n, c.warm, 1)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}

	if _, err := RunWorkload(good, w, 100, 10, 1); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
}

// TestRunWorkloadRejectsBrokenStreams: a custom Workload yielding an
// out-of-order or invalid stream is caught before the simulation starts.
func TestRunWorkloadRejectsBrokenStreams(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	disordered := workload.Trace{Label: "x", Reqs: []workload.Request{
		{Arrival: 2, Chunks: []int{1}},
		{Arrival: 1, Chunks: []int{2}},
	}}
	// Trace{} validation passes (non-empty), the stream scan must catch it.
	if _, err := RunWorkload(cfg, disordered, 2, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "before request") {
		t.Fatalf("out-of-order stream accepted: %v", err)
	}
	// MultiTenant merges its tenants' streams on the promise that each is
	// arrival-ordered; a broken one reaches the same check, not a panic.
	mixed := workload.MultiTenant{Tenants: []workload.Workload{disordered,
		workload.Trace{Label: "y", Reqs: []workload.Request{{Arrival: 1.5, Chunks: []int{3}}}}}}
	if _, err := RunWorkload(cfg, mixed, 3, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "before request") {
		t.Fatalf("out-of-order tenant stream accepted: %v", err)
	}
	invalid := workload.Trace{Label: "x", Reqs: []workload.Request{{Arrival: 1, Chunks: nil}}}
	if _, err := RunWorkload(cfg, invalid, 1, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "no chunks") {
		t.Fatalf("chunkless request accepted: %v", err)
	}
}

// TestVariableChunkCountsPerRequest: trace replay may retrieve a
// different chunk count per request; service times and steps must follow
// the request's own chunk list.
func TestVariableChunkCountsPerRequest(t *testing.T) {
	cfg := baseConfig(baselines.FullRecompute)
	// Two requests far apart (no queueing): TTFT = own prefill time.
	tr := workload.Trace{Label: "var", Reqs: []workload.Request{
		{Arrival: 0, Chunks: []int{0, 1}},
		{Arrival: 1000, Chunks: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}}
	res, err := RunWorkload(cfg, tr, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := cfg.Spec.FullPrefillTTFT(2*cfg.ChunkTokens + cfg.QueryTokens)
	large := cfg.Spec.FullPrefillTTFT(8*cfg.ChunkTokens + cfg.QueryTokens)
	wantMean := (small + large) / 2
	if res.MeanTTFT < 0.99*wantMean || res.MeanTTFT > 1.01*wantMean {
		t.Fatalf("mean TTFT %.4f, want ≈%.4f (per-request chunk counts ignored?)", res.MeanTTFT, wantMean)
	}
}
