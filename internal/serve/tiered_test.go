package serve

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/timing"
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
