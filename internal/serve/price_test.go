package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/controller"
	"repro/internal/device"
	"repro/internal/kvstore"
	"repro/internal/timing"
)

// reuseCostRef and chunkRatioRef are the per-call pricer as it was before
// the run's price table, kept verbatim but for the receiver and the
// tiered flag, which the cluster no longer resolves: every call reads the
// tier's device off node n's stack, runs the loading controller and the
// per-layer pipeline recurrence. TestPriceTableMatchesReference
// requires the table to return exactly their float64s.
func reuseCostRef(c *cluster, n *node, tier, k int) float64 {
	d := n.store.TierDevice(tier)
	if c.cfg.Scheme == baselines.FullKVReuse {
		return d.ReadTime(int64(k) * c.chunkBytes)
	}
	spec, tokens := &c.cfg.Spec, k*c.cfg.ChunkTokens
	return timing.Pipeline(spec.Layers, spec.LoadLayer(tokens, d),
		spec.RecomputeLayer(chunkRatioRef(c, tokens, d), tokens))
}

func chunkRatioRef(c *cluster, tokens int, d device.Device) float64 {
	if !c.cfg.tiered() {
		return c.cfg.Ratio
	}
	ctl := controller.Controller{Spec: c.cfg.Spec, QualityFloor: c.cfg.Ratio}
	return ctl.PickRatio(tokens, d)
}

// priceConfigs are the stacks the price table is pinned on, under both
// chunk-reusing schemes: flat single-device stores (untiered, so a fixed
// ratio), a one-tier hierarchy (the loading controller on one device),
// an HBM/RAM/NVMe stack, and serve-routed-tiered's HBM/RAM/slow-SSD
// stack at the default, configured and full recompute ratios.
func priceConfigs() map[string]Config {
	cfgs := make(map[string]Config)
	for _, scheme := range []baselines.Scheme{baselines.CacheBlend, baselines.FullKVReuse} {
		flat := baseConfig(scheme)
		cfgs[string(scheme)+"/flat-nvme"] = flat
		flat.Device, flat.Ratio = device.SlowSSD, 0.4
		cfgs[string(scheme)+"/flat-slow-ssd"] = flat
		chunkBytes := flat.Spec.KVBytes(flat.ChunkTokens)
		one := baseConfig(scheme)
		one.Tiers = []TierConfig{{Device: device.CPURAM, Capacity: 16 * chunkBytes}}
		cfgs[string(scheme)+"/one-tier-ram"] = one
		tiers3 := tieredConfig(8*chunkBytes, 48*chunkBytes, 0)
		tiers3.Scheme = scheme
		cfgs[string(scheme)+"/hbm-ram-nvme"] = tiers3
		for _, ratio := range []float64{0, 0.15, 1} {
			routed := routerTestConfig(RouterAffinity)
			routed.Scheme, routed.Ratio, routed.PrefetchPolicy = scheme, ratio, PrefetchPredictive
			cfgs[fmt.Sprintf("%s/routed-tiered/ratio=%g", scheme, ratio)] = routed
		}
	}
	return cfgs
}

// TestPriceTableMatchesReference pins the run's price table against the
// frozen per-call pricer: every tier and every k in 0..64, filled from
// an empty table in ascending k order (the row grows by doubling) and in
// descending order (one growth, then every entry below the first), each
// entry read once as it is priced and once more from the filled table.
// Equality is exact, bit for bit.
func TestPriceTableMatchesReference(t *testing.T) {
	const maxK = 64
	ascending := make([]int, maxK+1)
	for k := range ascending {
		ascending[k] = k
	}
	descending := make([]int, maxK+1)
	for k := range descending {
		descending[k] = maxK - k
	}
	for name, cfg := range priceConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for order, ks := range map[string][]int{"ascending": ascending, "descending": descending} {
			c := &cluster{cfg: cfg, names: kvstore.NewNames()}
			c.resolve()
			n := &node{store: c.names.MustTiered(c.buildTiers(), kvstore.LRU)}
			if len(c.price) != n.store.Depth() {
				t.Fatalf("%s: %d table rows for a %d-tier stack", name, len(c.price), n.store.Depth())
			}
			for pass := 0; pass < 2; pass++ {
				for tier := range c.price {
					for _, k := range ks {
						got, want := c.reuseCost(tier, k), reuseCostRef(c, n, tier, k)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s, %s pass %d: tier %d, k=%d: table %v (%#x), pricer %v (%#x)",
								name, order, pass, tier, k, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
			for tier, row := range c.price {
				if len(row) != 2*maxK {
					t.Errorf("%s, %s: tier %d row holds %d entries, want %d (doubled past k=%d)",
						name, order, tier, len(row), 2*maxK, maxK)
				}
			}
		}
	}
}

// TestPriceTableMatchesEveryNode: the table is one per run because every
// node's stack, joined nodes included, puts tier i on the same device.
// After a routed run with a join, the table must still equal the frozen
// pricer read off every node's own stack.
func TestPriceTableMatchesEveryNode(t *testing.T) {
	cfg := routerTestConfig(RouterAffinity)
	cfg.PrefetchPolicy = PrefetchPredictive
	cfg.Events = []MembershipEvent{{At: 20, Join: 2}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := newCluster(cfg, routerTestMix(2).Generate(300, 5), 50)
	c.run()
	if len(c.nodes) != cfg.Replicas+2 {
		t.Fatalf("%d nodes after the join, want %d", len(c.nodes), cfg.Replicas+2)
	}
	priced := 0
	for tier, row := range c.price {
		for _, p := range row {
			if p >= 0 {
				priced++
			}
		}
		for k := range row {
			for i, n := range c.nodes {
				if got, want := c.reuseCost(tier, k), reuseCostRef(c, n, tier, k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("node %d, tier %d, k=%d: table %v, pricer %v", i, tier, k, got, want)
				}
			}
		}
	}
	if priced == 0 {
		t.Fatal("the run priced no reuse: the check above compared nothing the run read")
	}
}
