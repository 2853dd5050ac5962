package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/timing"
	"repro/internal/workload"
)

func baseConfig(s baselines.Scheme) Config {
	return Config{
		Spec:             timing.Mistral7B,
		Scheme:           s,
		Ratio:            0.15,
		Device:           device.NVMeSSD,
		StoreCapacity:    0, // unbounded
		ChunkPool:        200,
		ChunksPerRequest: 6,
		ChunkTokens:      512,
		QueryTokens:      32,
		Skew:             0.8,
	}
}

// runPoisson runs the first n requests of a Poisson stream at rate, drawn
// from the config's sampling fields.
func runPoisson(t *testing.T, cfg Config, rate float64, n, warmup int, seed int64) Result {
	t.Helper()
	res, err := RunWorkload(cfg, workload.Poisson{Rate: rate, Chunks: cfg.chunks()}, n, warmup, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLowRateTTFTOrdering(t *testing.T) {
	// At a low request rate (no queueing), the TTFT ordering must be
	// reuse < cacheblend < prefix caching < full recompute, the paper's
	// Figure 12/14 ordering.
	rate := 0.05
	get := func(s baselines.Scheme) float64 {
		return runPoisson(t, baseConfig(s), rate, 600, 200, 1).MeanTTFT
	}
	reuse := get(baselines.FullKVReuse)
	blendT := get(baselines.CacheBlend)
	prefix := get(baselines.PrefixCaching)
	full := get(baselines.FullRecompute)
	if !(reuse <= blendT && blendT < prefix && prefix < full) {
		t.Fatalf("ordering wrong: reuse %.3f, blend %.3f, prefix %.3f, full %.3f",
			reuse, blendT, prefix, full)
	}
	// Headline: 2.2–3.3× faster than full recompute once the store is
	// warm. Allow a wider band since hit rates depend on the workload.
	speedup := full / blendT
	if speedup < 1.8 {
		t.Fatalf("speedup %.2f× too small (full %.3f blend %.3f)", speedup, full, blendT)
	}
}

func TestTTFTGrowsWithRate(t *testing.T) {
	cfg := baseConfig(baselines.FullRecompute)
	low := runPoisson(t, cfg, 0.05, 400, 100, 2).MeanTTFT
	high := runPoisson(t, cfg, 0.9, 400, 100, 2).MeanTTFT
	if high <= low {
		t.Fatalf("queueing should raise TTFT: low-rate %.3f vs high-rate %.3f", low, high)
	}
}

func TestBlendSustainsHigherRate(t *testing.T) {
	// The throughput claim: at a rate that saturates full recompute,
	// CacheBlend still serves with bounded TTFT.
	rate := 0.8
	full := runPoisson(t, baseConfig(baselines.FullRecompute), rate, 500, 150, 3)
	bl := runPoisson(t, baseConfig(baselines.CacheBlend), rate, 500, 150, 3)
	if bl.MeanTTFT >= full.MeanTTFT/2 {
		t.Fatalf("blend at saturating rate should be far faster: blend %.3f vs full %.3f",
			bl.MeanTTFT, full.MeanTTFT)
	}
	if bl.Throughput < full.Throughput {
		t.Fatalf("blend throughput %.2f below full %.2f", bl.Throughput, full.Throughput)
	}
}

func TestCapacityOrdering(t *testing.T) {
	capacity := func(s baselines.Scheme) float64 {
		c, err := Capacity(baseConfig(s), 4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	full := capacity(baselines.FullRecompute)
	prefix := capacity(baselines.PrefixCaching)
	bl := capacity(baselines.CacheBlend)
	if !(full < prefix && prefix < bl) {
		t.Fatalf("capacity ordering wrong: full %.2f prefix %.2f blend %.2f", full, prefix, bl)
	}
	// Paper: 2.8–5× over full recompute, up to 3.3× over prefix caching.
	if bl/full < 2 {
		t.Fatalf("blend capacity gain %.2f× over full too small", bl/full)
	}
}

func TestChunkHitRateBeatsPrefixHitRate(t *testing.T) {
	// Same storage budget: per-chunk reuse hits far more often than
	// position-0 prefix reuse (§7.2 "prefix caching will incur a higher
	// miss rate").
	capBytes := int64(100) * timing.Mistral7B.KVBytes(512)
	pc := baseConfig(baselines.PrefixCaching)
	pc.StoreCapacity = capBytes
	cb := baseConfig(baselines.CacheBlend)
	cb.StoreCapacity = capBytes
	prefix := runPoisson(t, pc, 0.2, 1500, 500, 5)
	bl := runPoisson(t, cb, 0.2, 1500, 500, 5)
	if bl.HitRate <= prefix.HitRate {
		t.Fatalf("chunk hit rate %.2f should beat prefix hit rate %.2f", bl.HitRate, prefix.HitRate)
	}
}

func TestRateSweepMonotoneRates(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	rates := []float64{0.05, 0.2, 0.4}
	res := make([]Result, len(rates))
	for i, rate := range rates {
		res[i] = runPoisson(t, cfg, rate, 300, 100, 6)
	}
	for i, r := range res {
		// Rate is the realised one: requests over the last arrival.
		reqs := workload.Poisson{Rate: rates[i], Chunks: cfg.chunks()}.Generate(300, 6)
		if r.Rate != 300/reqs[len(reqs)-1].Arrival || r.Requests != 200 {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
		if i > 0 && r.Rate <= res[i-1].Rate {
			t.Fatalf("realised rates %v and %v not increasing with the offered %v", res[i-1].Rate, r.Rate, rates)
		}
	}
	if !strings.Contains(res[0].String(), "mean_ttft") {
		t.Fatal("result string malformed")
	}
}

func TestSlowDeviceHurtsReuseMoreThanBlend(t *testing.T) {
	// On a very slow device, full reuse pays the whole loading cost while
	// CacheBlend... also loads everything. Their gap narrows (§7.3
	// Figure 17: "the delay gap between CacheBlend and Full KV reuse is
	// smaller for slower storage"); check the gap ratio shrinks.
	fast := device.CPURAM
	slow := device.SlowDisk
	gap := func(d device.Device) float64 {
		cfgR := baseConfig(baselines.FullKVReuse)
		cfgR.Device = d
		cfgB := baseConfig(baselines.CacheBlend)
		cfgB.Device = d
		r := runPoisson(t, cfgR, 0.05, 400, 100, 7).MeanTTFT
		b := runPoisson(t, cfgB, 0.05, 400, 100, 7).MeanTTFT
		return b / r
	}
	if gap(slow) >= gap(fast) {
		t.Fatalf("blend/reuse TTFT ratio should shrink on slow storage: fast %.2f slow %.2f",
			gap(fast), gap(slow))
	}
}

// TestCapacityRejectsBadConfig: a config the simulator cannot serve is
// Capacity's error, not a panic.
func TestCapacityRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{{}, baseConfig(baselines.MapReduce)} {
		if c, err := Capacity(cfg, 1); err == nil || !strings.Contains(err.Error(), "not a serving mode") {
			t.Errorf("scheme %q: capacity %v, error %v; want a serving-mode error", cfg.Scheme, c, err)
		}
	}
}

// runUnvalidated runs the first n requests of the base Poisson stream on
// cfg straight through the cluster, skipping RunWorkload's Validate, and
// returns what the run panicked with (nil if it finished).
func runUnvalidated(cfg Config, n int) (panicked any) {
	wave := workload.Poisson{Rate: 1, Chunks: baseConfig(baselines.CacheBlend).chunks()}.Generate(n, 1)
	defer func() { panicked = recover() }()
	newCluster(cfg, wave, 0).run()
	return nil
}

// TestBadConfigPanics: the zero Config, forced past Validate into a run,
// panics building its store — the zero device fails the store's check —
// instead of serving on a device with no bandwidth; through the entry
// points it is an error (TestCapacityRejectsBadConfig).
func TestBadConfigPanics(t *testing.T) {
	if p := runUnvalidated(Config{}, 10); p == nil || !strings.Contains(fmt.Sprint(p), "device") {
		t.Fatalf("zero config ran with panic %v; want the store's device panic", p)
	}
}

// TestNonServingSchemePanics: a scheme that is not a serving mode, forced
// past Validate into a run, panics in the pricing switch; the same config
// otherwise runs, so the scheme alone is what stops it.
func TestNonServingSchemePanics(t *testing.T) {
	cfg := baseConfig(baselines.MapReduce)
	if p := runUnvalidated(cfg, 10); p == nil || !strings.Contains(fmt.Sprint(p), "not a serving mode") {
		t.Fatalf("scheme %q ran with panic %v; want a serving-mode panic", cfg.Scheme, p)
	}
	cfg.Scheme = baselines.CacheBlend
	if p := runUnvalidated(cfg, 10); p != nil {
		t.Fatalf("scheme %q panicked: %v", cfg.Scheme, p)
	}
}
