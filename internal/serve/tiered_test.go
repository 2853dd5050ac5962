package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/timing"
	"repro/internal/workload"
)

// tieredConfig returns a CacheBlend config whose KV store spans
// HBM→RAM→NVMe with the given byte budgets.
func tieredConfig(hbm, ram, nvme int64) Config {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Tiers = []TierConfig{
		{Device: device.GPUHBM, Capacity: hbm},
		{Device: device.CPURAM, Capacity: ram},
		{Device: device.NVMeSSD, Capacity: nvme},
	}
	return cfg
}

// TestTieredBeatsSingleSlowTier is the acceptance check: at equal total
// capacity, an HBM+RAM+NVMe hierarchy must serve a lower mean TTFT than
// the same budget on NVMe alone — upper-tier hits pay cheaper loads.
func TestTieredBeatsSingleSlowTier(t *testing.T) {
	total := int64(120) * timing.Mistral7B.KVBytes(512) // 120 of 200 pool chunks
	flat := baseConfig(baselines.CacheBlend)
	flat.StoreCapacity = total
	tiered := tieredConfig(total/8, total/4, total-total/8-total/4)
	for _, rate := range []float64{0.1, 0.4} {
		fr := runPoisson(t, flat, rate, 900, 300, 11)
		tr := runPoisson(t, tiered, rate, 900, 300, 11)
		if tr.MeanTTFT >= fr.MeanTTFT {
			t.Fatalf("rate %.1f: tiered mean TTFT %.4f not below nvme-only %.4f",
				rate, tr.MeanTTFT, fr.MeanTTFT)
		}
		if len(tr.Tiers) != 3 {
			t.Fatalf("want 3 tier usage entries, got %d", len(tr.Tiers))
		}
		if tr.Tiers[0].Hits == 0 {
			t.Fatal("hot chunks should hit the HBM tier")
		}
	}
}

// TestTierHitRatesSumToLookups: per-tier hits plus misses account for
// every store lookup, and the reported per-tier hit rates add up to the
// aggregate hit rate.
func TestTierHitRatesSumToLookups(t *testing.T) {
	cfg := tieredConfig(
		40*timing.Mistral7B.KVBytes(512),
		80*timing.Mistral7B.KVBytes(512),
		0, // unbounded bottom
	)
	res := runPoisson(t, cfg, 0.3, 800, 200, 9)
	if res.Lookups == 0 {
		t.Fatal("no lookups recorded")
	}
	var hits int64
	var rateSum float64
	for _, tu := range res.Tiers {
		hits += tu.Hits
		rateSum += tu.HitRate
	}
	if hits+res.Misses != res.Lookups {
		t.Fatalf("tier hits %d + misses %d != lookups %d", hits, res.Misses, res.Lookups)
	}
	if diff := rateSum - res.HitRate; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("tier hit rates sum %.6f != aggregate %.6f", rateSum, res.HitRate)
	}
	// Demoted chunks must land somewhere: movement telemetry is coherent.
	if res.Tiers[0].Demotions == 0 {
		t.Fatal("bounded top tier under pressure should demote")
	}
	var resident int64
	for _, tu := range res.Tiers {
		resident += tu.BytesResident
	}
	if resident == 0 {
		t.Fatal("no bytes resident after a warm run")
	}
}

// TestSingleTierMatchesLegacyConfig: expressing the flat store as a
// one-entry Tiers list must reproduce the legacy Device/StoreCapacity
// run bit-identically (the schemes whose ratio does not depend on the
// controller's tier-aware choice).
func TestSingleTierMatchesLegacyConfig(t *testing.T) {
	for _, scheme := range []baselines.Scheme{baselines.PrefixCaching, baselines.FullKVReuse} {
		legacy := baseConfig(scheme)
		legacy.StoreCapacity = 64 * timing.Mistral7B.KVBytes(512)
		single := legacy
		single.Tiers = []TierConfig{{Device: legacy.Device, Capacity: legacy.StoreCapacity}}
		lr := runPoisson(t, legacy, 0.3, 400, 100, 4)
		sr := runPoisson(t, single, 0.3, 400, 100, 4)
		if lr.MeanTTFT != sr.MeanTTFT || lr.P95TTFT != sr.P95TTFT ||
			lr.Throughput != sr.Throughput || lr.HitRate != sr.HitRate {
			t.Fatalf("%s: single-tier run diverged from legacy: %+v vs %+v", scheme, sr, lr)
		}
	}
}

// TestFasterTopTierNeverHurts: adding a faster tier in front of the same
// bottom capacity must not raise TTFT for the load-dominated scheme.
func TestFasterTopTierNeverHurts(t *testing.T) {
	flat := baseConfig(baselines.FullKVReuse)
	flat.StoreCapacity = 100 * timing.Mistral7B.KVBytes(512)
	layered := baseConfig(baselines.FullKVReuse)
	layered.Tiers = []TierConfig{
		{Device: device.CPURAM, Capacity: flat.StoreCapacity / 4},
		{Device: device.NVMeSSD, Capacity: flat.StoreCapacity - flat.StoreCapacity/4},
	}
	fr := runPoisson(t, flat, 0.2, 600, 200, 8)
	lr := runPoisson(t, layered, 0.2, 600, 200, 8)
	if lr.MeanTTFT > fr.MeanTTFT {
		t.Fatalf("RAM front tier raised TTFT: %.4f vs %.4f", lr.MeanTTFT, fr.MeanTTFT)
	}
}

// TestFullRecomputeIgnoresStore is a metamorphic relation: full recompute
// prefills every token and looks up no chunk, so its Result, less the
// per-tier Tiers rows that name each run's devices, is the same on a flat
// NVMe store, a capacity-bounded slow SSD and an HBM/RAM/slow-SSD stack.
// It runs a Poisson stream with decode and the router sweep's bursty
// tenant mix. On the stack, where CacheBlend may prefetch, Validate
// rejects prefetch under full recompute, so no prefetch setting can tell
// the stores apart either.
func TestFullRecomputeIgnoresStore(t *testing.T) {
	chunkBytes := timing.Mistral7B.KVBytes(512)
	stores := []struct {
		name  string
		tiers int
		set   func(*Config)
	}{
		{"flat nvme", 1, func(c *Config) { c.Device, c.StoreCapacity, c.Tiers = device.NVMeSSD, 0, nil }},
		{"bounded slow ssd", 1, func(c *Config) { c.Device, c.StoreCapacity, c.Tiers = device.SlowSSD, 10*chunkBytes, nil }},
		{"hbm/ram/slow-ssd", 3, func(c *Config) {
			c.Tiers = []TierConfig{
				{Device: device.GPUHBM, Capacity: 8 * chunkBytes},
				{Device: device.CPURAM, Capacity: 48 * chunkBytes},
				{Device: device.SlowSSD},
			}
		}},
	}
	poisson := baseConfig(baselines.FullRecompute)
	mixed := routerTestConfig(RouterShared)
	mixed.Scheme = baselines.FullRecompute
	streams := []struct {
		name string
		cfg  Config
		w    workload.Workload
	}{
		{"poisson with decode", poisson, workload.Poisson{Rate: 0.3, Chunks: poisson.chunks(), Decode: workload.Decode{Mean: 24}}},
		{"router mix", mixed, routerTestMix(2)},
	}
	for _, st := range streams {
		var want []byte
		for _, s := range stores {
			cfg := st.cfg
			s.set(&cfg)
			res, err := RunWorkload(cfg, st.w, 400, 100, 3)
			if err != nil {
				t.Fatalf("%s on %s: %v", st.name, s.name, err)
			}
			if len(res.Tiers) != s.tiers || res.Lookups != 0 {
				t.Fatalf("%s on %s: %d tier rows and %d lookups, want %d and 0", st.name, s.name, len(res.Tiers), res.Lookups, s.tiers)
			}
			res.Tiers = nil
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("%s on %s differs from %s:\n %s\n %s", st.name, s.name, stores[0].name, got, want)
			}
			if s.tiers == 1 {
				continue
			}
			for _, pf := range []string{PrefetchOnEnqueue, PrefetchPredictive} {
				cfg.PrefetchPolicy = pf
				blend := cfg
				blend.Scheme = baselines.CacheBlend
				if cfg.Validate() == nil || blend.Validate() != nil {
					t.Errorf("%s on %s: prefetch %s valid under full recompute or invalid under CacheBlend", st.name, s.name, pf)
				}
			}
		}
	}
}
