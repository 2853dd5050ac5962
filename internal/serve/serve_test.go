package serve

import (
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/timing"
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

func TestLowRateTTFTOrdering(t *testing.T) {
	// At a low request rate (no queueing), the TTFT ordering must be
	// reuse < cacheblend < prefix caching < full recompute, the paper's
	// Figure 12/14 ordering.
	rate := 0.05
	get := func(s baselines.Scheme) float64 {
		return Run(baseConfig(s), rate, 600, 200, 1).MeanTTFT
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
	low := Run(cfg, 0.05, 400, 100, 2).MeanTTFT
	high := Run(cfg, 0.9, 400, 100, 2).MeanTTFT
	if high <= low {
		t.Fatalf("queueing should raise TTFT: low-rate %.3f vs high-rate %.3f", low, high)
	}
}

func TestBlendSustainsHigherRate(t *testing.T) {
	// The throughput claim: at a rate that saturates full recompute,
	// CacheBlend still serves with bounded TTFT.
	rate := 0.8
	full := Run(baseConfig(baselines.FullRecompute), rate, 500, 150, 3)
	bl := Run(baseConfig(baselines.CacheBlend), rate, 500, 150, 3)
	if bl.MeanTTFT >= full.MeanTTFT/2 {
		t.Fatalf("blend at saturating rate should be far faster: blend %.3f vs full %.3f",
			bl.MeanTTFT, full.MeanTTFT)
	}
	if bl.Throughput < full.Throughput {
		t.Fatalf("blend throughput %.2f below full %.2f", bl.Throughput, full.Throughput)
	}
}

func TestCapacityOrdering(t *testing.T) {
	full := Capacity(baseConfig(baselines.FullRecompute), 4)
	prefix := Capacity(baseConfig(baselines.PrefixCaching), 4)
	bl := Capacity(baseConfig(baselines.CacheBlend), 4)
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
	prefix := Run(pc, 0.2, 1500, 500, 5)
	bl := Run(cb, 0.2, 1500, 500, 5)
	if bl.HitRate <= prefix.HitRate {
		t.Fatalf("chunk hit rate %.2f should beat prefix hit rate %.2f", bl.HitRate, prefix.HitRate)
	}
}

func TestRateSweepMonotoneRates(t *testing.T) {
	rates := []float64{0.05, 0.2, 0.4}
	res := make([]Result, len(rates))
	for i, rate := range rates {
		res[i] = Run(baseConfig(baselines.CacheBlend), rate, 300, 100, 6)
	}
	for i, r := range res {
		if r.Rate != rates[i] || r.Requests != 200 {
			t.Fatalf("result %d malformed: %+v", i, r)
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
		r := Run(cfgR, 0.05, 400, 100, 7).MeanTTFT
		b := Run(cfgB, 0.05, 400, 100, 7).MeanTTFT
		return b / r
	}
	if gap(slow) >= gap(fast) {
		t.Fatalf("blend/reuse TTFT ratio should shrink on slow storage: fast %.2f slow %.2f",
			gap(fast), gap(slow))
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{}, 1, 10, 0, 1)
}

func TestNonServingSchemePanics(t *testing.T) {
	cfg := baseConfig(baselines.MapReduce)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(cfg, 1, 10, 0, 1)
}
