package serve

import (
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/workload"
)

// TestReplicasSustainHigherRate is the scaling acceptance check: under
// the CacheBlend scheme, 4 replicas must sustain a strictly higher
// saturation rate than 1, and at a rate that saturates a single replica
// the 4-replica cluster must keep TTFT bounded.
func TestReplicasSustainHigherRate(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.MaxBatch = 4

	cfg.Replicas = 1
	sat1 := SaturationRate(cfg, 11)
	cfg.Replicas = 4
	sat4 := SaturationRate(cfg, 11)
	if sat4 <= sat1 {
		t.Fatalf("4 replicas saturate at %.2f req/s, not above 1 replica's %.2f", sat4, sat1)
	}
	if sat4 < 2*sat1 {
		t.Fatalf("4 replicas should at least double capacity: %.2f vs %.2f", sat4, sat1)
	}

	// Sweep a rate 1.5× past the single-replica saturation point: the
	// single replica drowns in queueing delay, the 4-replica cluster
	// absorbs it.
	rate := 1.5 * sat1
	cfg.Replicas = 1
	r1 := Run(cfg, rate, 600, 150, 11)
	cfg.Replicas = 4
	r4 := Run(cfg, rate, 600, 150, 11)
	if r4.MeanTTFT >= r1.MeanTTFT/2 {
		t.Fatalf("4 replicas at %.2f req/s: ttft %.3f should be far below 1 replica's %.3f",
			rate, r4.MeanTTFT, r1.MeanTTFT)
	}
	if r4.Throughput <= r1.Throughput {
		t.Fatalf("4-replica throughput %.2f not above 1-replica %.2f", r4.Throughput, r1.Throughput)
	}
}

// TestDeterministicResults asserts bit-identical Results — all fields,
// histograms and per-replica metrics included — for two runs with the
// same seed, the property the virtual-clock scheduler exists to provide.
func TestDeterministicResults(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Replicas = 4
	cfg.MaxBatch = 4
	cfg.StoreCapacity = int64(64) * cfg.Spec.KVBytes(cfg.ChunkTokens)
	a := Run(cfg, 0.9, 500, 100, 99)
	b := Run(cfg, 0.9, 500, 100, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := Run(cfg, 0.9, 500, 100, 100)
	if reflect.DeepEqual(a.MeanTTFT, c.MeanTTFT) && reflect.DeepEqual(a.BatchSizes, c.BatchSizes) {
		t.Fatal("different seeds produced identical runs — seed is ignored")
	}
}

// TestContinuousBatchingJoinsUnderLoad checks the join side: with the
// queue backed up, replicas must fill batches past size 1; at a trickle
// rate every step must run solo.
func TestContinuousBatchingJoinsUnderLoad(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.MaxBatch = 4

	overloaded := Run(cfg, 20, 400, 100, 8)
	if overloaded.MeanBatch <= 1.5 {
		t.Fatalf("overloaded replica should batch: mean batch %.2f, sizes %v",
			overloaded.MeanBatch, overloaded.BatchSizes)
	}
	if overloaded.BatchSizes[cfg.MaxBatch] == 0 {
		t.Fatalf("never reached the batch cap %d: %v", cfg.MaxBatch, overloaded.BatchSizes)
	}
	if overloaded.MeanQueueDepth <= 1 {
		t.Fatalf("overloaded queue depth %.2f should exceed 1", overloaded.MeanQueueDepth)
	}

	idle := Run(cfg, 0.01, 200, 50, 8)
	for size := range idle.BatchSizes {
		if size != 1 {
			t.Fatalf("trickle load ran a batch of %d: %v", size, idle.BatchSizes)
		}
	}
}

// TestBatchingRaisesThroughput: same offered overload, bigger batch cap ⇒
// more completed requests per second (the amortisation that makes
// continuous batching worth having).
func TestBatchingRaisesThroughput(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.MaxBatch = 1
	solo := Run(cfg, 10, 400, 100, 9)
	cfg.MaxBatch = 8
	batched := Run(cfg, 10, 400, 100, 9)
	if batched.Throughput <= solo.Throughput {
		t.Fatalf("batch cap 8 throughput %.2f not above unbatched %.2f",
			batched.Throughput, solo.Throughput)
	}
}

// TestReplicaFairness: with the queue never empty, FIFO wakeups must keep
// every replica busy — no worker starves.
func TestReplicaFairness(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Replicas = 4
	res := Run(cfg, 40, 600, 150, 10) // well past 4-replica saturation
	if len(res.ReplicaUtil) != 4 {
		t.Fatalf("want 4 utilization samples, got %v", res.ReplicaUtil)
	}
	lo, hi := 1.0, 0.0
	for i, u := range res.ReplicaUtil {
		if u < 0.7 {
			t.Fatalf("replica %d utilization %.2f — starved (all: %v)", i, u, res.ReplicaUtil)
		}
		if u > 1 {
			t.Fatalf("replica %d utilization %.2f above 1", i, u)
		}
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if hi-lo > 0.1 {
		t.Fatalf("replica utilization spread %.2f too wide for FIFO admission: %v", hi-lo, res.ReplicaUtil)
	}
}

// TestRuntimeMetricsPopulated sanity-checks the new observability fields.
func TestRuntimeMetricsPopulated(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Replicas = 2
	cfg.MaxBatch = 4
	res := Run(cfg, 2, 400, 100, 12)
	if res.Replicas != 2 {
		t.Fatalf("Replicas = %d", res.Replicas)
	}
	if res.MeanBatch < 1 {
		t.Fatalf("MeanBatch %.2f below 1", res.MeanBatch)
	}
	if res.MeanQueueDepth < 0 {
		t.Fatalf("MeanQueueDepth %.2f negative", res.MeanQueueDepth)
	}
	if len(res.BatchSizes) == 0 {
		t.Fatal("BatchSizes empty")
	}
	if res.Requests != 300 {
		t.Fatalf("Requests = %d, want 300", res.Requests)
	}
}

// TestTinyCapacityStillCaches: sharding must clamp so a bounded store
// holding just one context still caches chunks instead of splitting into
// shards too small to accept a single Put.
func TestTinyCapacityStillCaches(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Replicas = 4 // defaults to 8 shards, > chunks-per-context
	cfg.StoreCapacity = cfg.Spec.KVBytes(cfg.ChunksPerRequest * cfg.ChunkTokens)
	res := Run(cfg, 0.5, 400, 100, 13)
	if res.HitRate <= 0 {
		t.Fatalf("one-context store served 0%% hits — shard slices too small for a chunk")
	}
}

// TestSingleReplicaUnbatchedMatchesFCFS: with one replica and no
// batching, the runtime must behave like the original single-server FCFS
// simulator — service times queue back to back, TTFT = wait + service.
func TestSingleReplicaUnbatchedMatchesFCFS(t *testing.T) {
	cfg := baseConfig(baselines.FullRecompute)
	// Deterministic service time S for full recompute (store-independent).
	S := cfg.Spec.FullPrefillTTFT(cfg.ChunksPerRequest*cfg.ChunkTokens + cfg.QueryTokens)
	res := Run(cfg, 1000, 50, 0, 3) // effectively simultaneous arrivals
	// Request i completes ≈ (i+1)×S after t≈0, so mean TTFT ≈ S×(n+1)/2.
	wantMean := S * float64(50+1) / 2
	if res.MeanTTFT < 0.9*wantMean || res.MeanTTFT > 1.1*wantMean {
		t.Fatalf("FCFS backlog mean TTFT %.3f, want ≈%.3f", res.MeanTTFT, wantMean)
	}
}

// TestChunkKeyTable pins chunkKeyOf's memoisation: every id maps to its
// chunkKey; a generated corpus stays in the dense table, never touching
// the map; sparse huge ids (as a hand-written trace may carry) go to the
// map without growing the table toward them; and once the table grows
// over ids the map holds, they move into it.
func TestChunkKeyTable(t *testing.T) {
	cfg := hotConfig()
	name := cfg.Spec.Name
	check := func(c *cluster, id int) {
		t.Helper()
		if got := c.chunkKeyOf(id); got != chunkKey(name, id) {
			t.Fatalf("chunkKeyOf(%d) is not chunkKey", id)
		}
	}

	c := &cluster{cfg: cfg}
	for _, r := range (workload.Poisson{Rate: 2, Chunks: cfg.chunks()}).Generate(2000, 3) {
		for _, id := range r.Chunks {
			check(c, id)
			check(c, id) // memoised
		}
	}
	if len(c.keyMap) != 0 || len(c.keyTable) > 2*cfg.ChunkPool {
		t.Fatalf("generated corpus of %d chunks: table %d, map %d entries", cfg.ChunkPool, len(c.keyTable), len(c.keyMap))
	}

	c = &cluster{cfg: cfg}
	sparse := []int{7, 1 << 30, 2_000_000_000, 1 << 30, -3, 12}
	for _, id := range sparse {
		check(c, id)
	}
	if len(c.keyTable) > keyTableMin || len(c.keyMap) != 3 || c.keysCached != 5 {
		t.Fatalf("sparse ids: table %d, map %d, %d cached", len(c.keyTable), len(c.keyMap), c.keysCached)
	}

	// An id above keyTableMin first lands in the map, then moves into the
	// table once enough ids are memoised for the table to grow over it:
	// with 601 memoised, the slack bound is 8×602 = 4816 > 4700.
	c = &cluster{cfg: cfg}
	check(c, 4500)
	if len(c.keyMap) != 1 {
		t.Fatalf("id 4500 with nothing memoised should go to the map (table %d)", len(c.keyTable))
	}
	for id := 0; id < 600; id++ {
		check(c, id)
	}
	check(c, 4700)
	if len(c.keyMap) != 0 || len(c.keyTable) <= 4700 || c.keysCached != 602 {
		t.Fatalf("after growth: table %d, map %d, %d cached", len(c.keyTable), len(c.keyMap), c.keysCached)
	}
	check(c, 4500)
}
