package serve

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/chunk"
	"repro/internal/device"
	"repro/internal/timing"
	"repro/internal/workload"
)

// routerTestConfig is the router sweep's acceptance scenario at test
// scale: four replicas with their own HBM/DRAM/slow-SSD stacks, each
// tenant corpus 6× one replica's HBM tier.
func routerTestConfig(router string) Config {
	chunkBytes := timing.Mistral7B.KVBytes(512)
	return Config{
		Spec:     timing.Mistral7B,
		Scheme:   baselines.CacheBlend,
		Ratio:    0.15,
		Replicas: 4,
		MaxBatch: 4,
		Tiers: []TierConfig{
			{Device: device.GPUHBM, Capacity: 8 * chunkBytes},
			{Device: device.CPURAM, Capacity: 48 * chunkBytes},
			{Device: device.SlowSSD},
		},
		ChunkTokens: 512,
		QueryTokens: 128,
		Router:      router,
	}
}

// routerTestMix is four bursty tenants over disjoint 48-chunk corpora.
func routerTestMix(rate float64) workload.Workload {
	mix := make([]workload.Workload, 4)
	for i := range mix {
		mix[i] = workload.Bursty{Rate: rate, Burst: 4,
			Chunks: workload.Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48}}
	}
	return workload.MultiTenant{Tenants: mix}
}

func TestRouterValidate(t *testing.T) {
	cfg := routerTestConfig("round-robin")
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown router policy accepted")
	}
	for _, router := range []string{"", RouterShared, RouterHash, RouterAffinity} {
		cfg := routerTestConfig(router)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("router %q rejected: %v", router, err)
		}
	}
	// Routed policies place by chunk identity, so chunkless schemes make
	// no sense; the shared baseline is topology-neutral and stays legal.
	cfg = routerTestConfig(RouterAffinity)
	cfg.Scheme = baselines.FullRecompute
	if err := cfg.Validate(); err == nil {
		t.Fatal("affinity routing accepted for a non-chunk-reusing scheme")
	}
	cfg.Router = RouterShared
	if err := cfg.Validate(); err != nil {
		t.Fatalf("shared baseline rejected for full recompute: %v", err)
	}
}

// TestHashRingBalance: 64 vnodes per replica must spread chunk ownership
// to within a few percent of uniform — the property that makes hash
// routing's load balance worth its duplication cost.
func TestHashRingBalance(t *testing.T) {
	const replicas, ids = 4, 20000
	ring := newHashRing(replicas)
	counts := make([]int, replicas)
	for i := 0; i < ids; i++ {
		counts[ring.owner(chunk.Hash("ring-balance", []int{i}))]++
	}
	for r, n := range counts {
		share := float64(n) / ids
		if share < 0.15 || share > 0.35 {
			t.Errorf("replica %d owns %.1f%% of ids, want 15%%–35%%", r, share*100)
		}
	}
}

// TestHashRingStability: ownership under n replicas must be a subset of
// the points, not a reshuffle — growing the ring may only move a chunk to
// the new replica, never between old ones. That is the consistent-hashing
// property the scale-out roadmap item depends on.
func TestHashRingStability(t *testing.T) {
	small, big := newHashRing(4), newHashRing(5)
	moved, total := 0, 5000
	for i := 0; i < total; i++ {
		id := chunk.Hash("ring-stability", []int{i})
		was, is := small.owner(id), big.owner(id)
		if was != is {
			if is != 4 {
				t.Fatalf("id %d moved between old replicas %d→%d on scale-out", i, was, is)
			}
			moved++
		}
	}
	// The new replica should claim roughly 1/5 of the keyspace.
	if share := float64(moved) / float64(total); share < 0.10 || share > 0.30 {
		t.Errorf("scale-out moved %.1f%% of ids, want 10%%–30%%", share*100)
	}
}

// TestRouterDeterminism: a routed run is a function of (config, workload,
// seed) — replaying it must reproduce every Result field bit for bit.
func TestRouterDeterminism(t *testing.T) {
	w := routerTestMix(2.0)
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		cfg := routerTestConfig(router)
		a, err := RunWorkload(cfg, w, 200, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunWorkload(cfg, w, 200, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("router %q: same seed diverged:\n a %s\n b %s", router, aj, bj)
		}
	}
}

// TestRouterSharedMatchesLegacy: the empty (default) Router is the shared
// baseline — naming it must reproduce the schedule and its telemetry
// exactly.
func TestRouterSharedMatchesLegacy(t *testing.T) {
	res := emptyMatchesNamed(t, func(c *Config, p string) { c.Router = p }, RouterShared, "")
	// One store (one hit-rate row), but admission counts stay per replica:
	// shared replicas still pull work from the common queue independently.
	if res.Router != RouterShared || len(res.ReplicaHitRates) != 1 ||
		len(res.ReplicaRequests) != 4 || res.DuplicationBytes != 0 {
		t.Errorf("shared telemetry malformed: router=%q hitrates=%v reqs=%v dup=%d",
			res.Router, res.ReplicaHitRates, res.ReplicaRequests, res.DuplicationBytes)
	}
}

// TestAffinityBeatsHashAndShared is the acceptance property of the
// router: on multi-tenant bursty Zipf traffic whose corpora exceed a
// replica's HBM tier, affinity routing must beat both the shared
// single-store baseline and consistent hashing on mean TTFT and on
// top-tier hit rate. Seeds are averaged because single bursty traces are
// noisy on a ~5% margin.
func TestAffinityBeatsHashAndShared(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed routed simulations")
	}
	w := routerTestMix(2.0)
	mean := func(router string) (ttft, hbm float64) {
		for _, seed := range []int64{1, 2, 3} {
			res, err := RunWorkload(routerTestConfig(router), w, 600, 100, seed)
			if err != nil {
				t.Fatal(err)
			}
			ttft += res.MeanTTFT
			hbm += res.Tiers[0].HitRate
		}
		return ttft / 3, hbm / 3
	}
	sharedTTFT, sharedHBM := mean(RouterShared)
	hashTTFT, hashHBM := mean(RouterHash)
	affTTFT, affHBM := mean(RouterAffinity)
	if affTTFT >= sharedTTFT || affTTFT >= hashTTFT {
		t.Errorf("affinity mean TTFT %.3f not best (shared %.3f, hash %.3f)",
			affTTFT, sharedTTFT, hashTTFT)
	}
	if affHBM <= sharedHBM || affHBM <= hashHBM {
		t.Errorf("affinity HBM hit rate %.3f not best (shared %.3f, hash %.3f)",
			affHBM, sharedHBM, hashHBM)
	}
}

// TestRouterRaceStress runs routed simulations concurrently so the race
// detector can see any state — stores, loaders, popularity views — that
// leaks between runs, each of which must own its own. Results are
// discarded; the assertions are the ones -race injects.
func TestRouterRaceStress(t *testing.T) {
	w := routerTestMix(2.0)
	var wg sync.WaitGroup
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		for seed := int64(1); seed <= 2; seed++ {
			router, seed := router, seed
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := routerTestConfig(router)
				cfg.PrefetchPolicy = PrefetchPredictive
				if _, err := RunWorkload(cfg, w, 120, 20, seed); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
}

// TestWarmupTieMeasured pins the unified warmup rule: a request is
// measured iff it arrives at or after the cutoff — the arrival of the
// first post-warmup request — so requests tied with the cutoff count even
// when their index falls inside the warmup prefix. Six requests arrive at
// [0,0,1,1,1,2] with warmup=3: the cutoff is reqs[3].Arrival = 1, and the
// four requests arriving at t≥1 (the index-2 tie included) are measured.
func TestWarmupTieMeasured(t *testing.T) {
	reqs := make([]workload.Request, 0, 6)
	for i, at := range []float64{0, 0, 1, 1, 1, 2} {
		reqs = append(reqs, workload.Request{Arrival: at, Chunks: []int{i, i + 6}})
	}
	cfg := routerTestConfig("")
	res, err := RunWorkload(cfg, workload.Trace{Label: "warmup-tie", Reqs: reqs}, len(reqs), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4 {
		t.Errorf("measured %d requests, want 4 (arrival ties at the cutoff count)", res.Requests)
	}
}
