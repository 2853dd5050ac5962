package serve

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/kvstore"
	"repro/internal/timing"
	"repro/internal/workload"
)

// prefetchConfig is the golden bursty-drift setup: tiered CacheBlend with
// a top tier far smaller than the working set, so cold-tier reads (and
// the transfers that hide them) actually happen.
func prefetchConfig(policy string) Config {
	cfg := Config{
		Spec:             timing.Mistral7B,
		Scheme:           baselines.CacheBlend,
		Ratio:            0.15,
		Replicas:         2,
		MaxBatch:         3,
		PrefetchPolicy:   policy,
		ChunkPool:        150,
		ChunksPerRequest: 6,
		ChunkTokens:      512,
		QueryTokens:      32,
		Skew:             0.9,
	}
	total := int64(60) * cfg.Spec.KVBytes(cfg.ChunkTokens)
	cfg.Tiers = []TierConfig{
		{Device: device.GPUHBM, Capacity: total / 6},
		{Device: device.CPURAM, Capacity: total / 3},
		{Device: device.NVMeSSD, Capacity: total - total/6 - total/3},
	}
	return cfg
}

func burstyDrift(rate float64, cfg Config) workload.Workload {
	return workload.Bursty{Rate: rate, Burst: 24, Chunks: workload.Chunks{
		Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest,
		Skew: cfg.Skew, DriftPeriod: 60,
	}}
}

func TestPrefetchValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"empty", func(c *Config) { c.PrefetchPolicy = "" }, true},
		{"off", func(c *Config) { c.PrefetchPolicy = PrefetchOff }, true},
		{"on-enqueue", func(c *Config) { c.PrefetchPolicy = PrefetchOnEnqueue }, true},
		{"predictive", func(c *Config) { c.PrefetchPolicy = PrefetchPredictive }, true},
		{"unknown-policy", func(c *Config) { c.PrefetchPolicy = "sometimes" }, false},
		{"active-needs-tiers", func(c *Config) {
			c.Tiers = nil
			c.Device = device.NVMeSSD
			c.StoreCapacity = 1 << 30
		}, false},
		{"active-needs-reuse-scheme", func(c *Config) { c.Scheme = baselines.PrefixCaching }, false},
	}
	for _, tc := range cases {
		cfg := prefetchConfig(PrefetchOnEnqueue)
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want validation error, got nil", tc.name)
		}
	}
}

// TestPrefetchTelemetryGating: the empty (default) PrefetchPolicy is
// "off" — synchronous loading with the tier telemetry reported and no
// loader transfers. The pair runs under affinity routing, where the
// popularity view the router scores with would tell the two apart if
// the lookup path did.
func TestPrefetchTelemetryGating(t *testing.T) {
	res := emptyMatchesNamed(t, func(c *Config, p string) { c.PrefetchPolicy = p }, PrefetchOff, RouterAffinity)
	if res.TierStallTime <= 0 || res.HBMHitRate <= 0 {
		t.Errorf("off policy: want tier-read stall and HBM hit rate > 0, got %v / %v",
			res.TierStallTime, res.HBMHitRate)
	}
	if res.PrefetchIssued != 0 {
		t.Errorf("off policy issued transfers without loaders: %d", res.PrefetchIssued)
	}
}

// TestPrefetchOverlapsQueueing: on bursty tiered traffic where requests
// queue, the loaders must turn queueing delay into transfer overlap —
// issuing real transfers, landing prefetch hits, and cutting both the
// tier-read stall and TTFT relative to the synchronous baseline.
func TestPrefetchOverlapsQueueing(t *testing.T) {
	// A longer horizon than the golden cases: single 150-request bursty
	// traces are noisy enough that one arrival pattern can swamp the
	// effect; 600 requests (≈10 drift periods) is where it is stable.
	run := func(policy string, seed int64) Result {
		cfg := prefetchConfig(policy)
		res, err := RunWorkload(cfg, burstyDrift(0.5, cfg), 600, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, seed := range []int64{1, 7} {
		off := run(PrefetchOff, seed)
		pred := run(PrefetchPredictive, seed)
		if pred.PrefetchIssued == 0 || pred.PrefetchHits == 0 {
			t.Fatalf("seed %d: predictive loaders idle: issued=%d hits=%d",
				seed, pred.PrefetchIssued, pred.PrefetchHits)
		}
		if pred.TierStallTime >= off.TierStallTime {
			t.Errorf("seed %d: predictive stall %v, want < synchronous %v",
				seed, pred.TierStallTime, off.TierStallTime)
		}
		if pred.MeanTTFT >= off.MeanTTFT {
			t.Errorf("seed %d: predictive TTFT %v, want < synchronous %v",
				seed, pred.MeanTTFT, off.MeanTTFT)
		}
		if pred.HBMHitRate <= off.HBMHitRate {
			t.Errorf("seed %d: predictive HBM hit rate %v, want > synchronous %v",
				seed, pred.HBMHitRate, off.HBMHitRate)
		}
	}
}

// TestServiceTimeTwoPassLookup is the regression test for the admission
// accounting bug: serviceTime used to interleave Gets and Puts over a
// request's chunk list, so inserting a missed chunk mid-scan could evict
// a later chunk of the same request that was resident when the request
// was admitted — the request was then charged a miss for a chunk it
// should have found. The two-pass form resolves every lookup against the
// pre-request store state before inserting anything.
func TestServiceTimeTwoPassLookup(t *testing.T) {
	cfg := prefetchConfig("")
	cfg.Replicas = 1
	// A single unsharded tier that holds exactly two chunks.
	cfg.Tiers = []TierConfig{{Device: device.GPUHBM, Capacity: 2 * cfg.Spec.KVBytes(cfg.ChunkTokens)}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// The store is filled through the chunk.ID methods, and serviceTime
	// then names the same chunks through its key table: the two naming
	// paths must agree on every handle.
	newStore := func(names *kvstore.Names) *kvstore.Tiered {
		c := &cluster{cfg: cfg}
		c.chunkBytes = cfg.Spec.KVBytes(cfg.ChunkTokens)
		ts := names.MustTiered(c.buildTiers(), kvstore.LRU)
		// Pre-populate chunks 1 and 2; chunk 3 is absent.
		ts.Put(chunkKey(cfg.Spec.Name, 1), kvstore.Bytes(c.chunkBytes))
		ts.Put(chunkKey(cfg.Spec.Name, 2), kvstore.Bytes(c.chunkBytes))
		return ts
	}

	// The old interleaved scan over the request [2, 3, 1]: Get(2) hits,
	// the miss-insert of 3 evicts LRU chunk 1, Get(1) then misses — one
	// hit for a request that arrived with two of its chunks resident.
	old := newStore(kvstore.NewNames())
	defer old.Close()
	oldHits := 0
	for _, id := range []int{2, 3, 1} {
		key := chunkKey(cfg.Spec.Name, id)
		if _, _, ok := old.Get(key); ok {
			oldHits++
		} else {
			old.Put(key, kvstore.Bytes(cfg.Spec.KVBytes(cfg.ChunkTokens)))
		}
	}
	if oldHits != 1 {
		t.Fatalf("interleaved scan: got %d hits, the historical bug produced 1", oldHits)
	}

	c := &cluster{cfg: cfg, names: kvstore.NewNames()}
	c.resolve()
	n := &node{store: newStore(c.names)}
	_, lookups, hits, _ := c.serviceTime(n, []int{2, 3, 1}, 0)
	if lookups != 3 {
		t.Fatalf("two-pass: got %d lookups, want 3", lookups)
	}
	if hits != 2 {
		t.Errorf("two-pass: got %d hits, want 2 (chunks 1 and 2 were resident at admission)", hits)
	}
	if st := n.store.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("two-pass store stats: got %d hits / %d misses, want 2 / 1", st.Hits, st.Misses)
	}
	if h := c.names.Len(); h != 3 || n.store.Len() != 2 {
		t.Errorf("two-pass: %d handles for 3 chunk ids and %d entries, want 3 and 2", h, n.store.Len())
	}
}

// TestServiceTimeTwoPassDupKeys: repeated chunk ids in one request keep
// the legacy accounting — a repeat of a missed chunk finds the copy the
// first occurrence inserted.
func TestServiceTimeTwoPassDupKeys(t *testing.T) {
	cfg := prefetchConfig("")
	cfg.Replicas = 1
	cfg.Tiers = []TierConfig{{Device: device.GPUHBM, Capacity: 8 * cfg.Spec.KVBytes(cfg.ChunkTokens)}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := &cluster{cfg: cfg, names: kvstore.NewNames()}
	c.resolve()
	n := &node{store: c.names.MustTiered(c.buildTiers(), kvstore.LRU)}
	_, lookups, hits, _ := c.serviceTime(n, []int{5, 5, 5}, 0)
	if lookups != 3 || hits != 2 {
		t.Errorf("dup request: got %d lookups / %d hits, want 3 / 2 (miss, then two hits on the inserted copy)",
			lookups, hits)
	}
}
