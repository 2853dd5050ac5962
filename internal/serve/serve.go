// Package serve simulates an LLM serving deployment end to end: a
// workload-generated (or trace-replayed) request stream into a shared
// admission queue, N replica workers with continuous batching (requests
// join and leave a running batch at step boundaries), a capacity-bounded
// sharded KV cache store shared by all replicas, and per-scheme prefill
// costs from the calibrated timing model. Requests run a two-phase
// lifecycle: chunk-granularity prefill steps, then — when the workload
// gives them a generation budget (workload.Request.DecodeTokens) —
// per-token decode steps that batch with other members' prefills and
// decodes the way a vLLM-style continuous-batching scheduler interleaves
// them, growing the request's KV footprint in the shared store as tokens
// are generated. It reproduces the paper's throughput study (Figure 14)
// — TTFT as a function of request rate for CacheBlend, full KV recompute
// and prefix caching — and extends it with the replica- and
// batch-scaling dimension a production deployment lives in, the bursty,
// diurnal and multi-tenant arrival patterns real RAG traffic shows
// (internal/workload), and the decode-phase contention (TBT, end-to-end
// latency, generation-aware KV pressure) that erodes prefill wins in
// real deployments.
//
// The runtime runs on sim.Clock: every simulated process — arrivals,
// replica workers, prefetch loaders, closed-loop clients — is a resumable
// task on the event heap, run one at a time on the caller's goroutine in
// (time, seq) order, so runs with the same seed give identical Results and
// a run starts no goroutine. Concurrent runs share nothing.
package serve

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/chunk"
	"repro/internal/controller"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/timing"
	"repro/internal/workload"
)

// TierConfig places one level of the KV storage hierarchy, fastest first.
type TierConfig struct {
	// Device is the tier's storage device.
	Device device.Device
	// Capacity is the tier's byte budget; 0 = unbounded (bottom tier
	// only).
	Capacity int64
}

// Config describes one serving configuration.
type Config struct {
	// Spec is the served model's delay profile.
	Spec timing.Spec
	// Scheme selects the KV handling strategy (FullRecompute,
	// PrefixCaching, FullKVReuse or CacheBlend; the Map* schemes are
	// quality baselines, not serving modes).
	Scheme baselines.Scheme
	// Ratio is CacheBlend's recompute ratio. With Tiers configured it is
	// the quality floor r* instead: each chunk's ratio is picked by the
	// loading controller against the tier the chunk was found on, never
	// below Ratio (§5.1).
	Ratio float64
	// Device stores the KV caches.
	Device device.Device
	// StoreCapacity bounds the KV store (0 = unbounded).
	StoreCapacity int64
	// Tiers places the KV store across a storage hierarchy (e.g. GPU-HBM
	// → CPU-RAM → NVMe): a lookup finds a chunk on whichever tier holds
	// it, hits promote hot chunks upward, capacity pressure demotes LRU
	// victims to the next tier, and only the bottom tier evicts. Each tier is sharded like
	// the flat store. Empty means one tier on Device with StoreCapacity —
	// the original single-device runtime.
	Tiers []TierConfig
	// StoreShards splits the KV store into shards keyed by chunk-ID
	// hash. Each shard gets an equal slice of StoreCapacity and runs its
	// own LRU. 0 picks a default: 1 shard for
	// a single replica (exact global LRU, the paper's setup), 8 when
	// replicas share the store.
	StoreShards int
	// Replicas is the number of model replicas pulling from the shared
	// admission queue (0 = 1).
	Replicas int
	// MaxBatch caps how many requests one replica advances per step with
	// continuous batching (0 = 1, no batching).
	MaxBatch int
	// BatchOverhead is the marginal step-time factor of each additional
	// sequence in a batch: a step over B requests costs the longest
	// member step × (1 + BatchOverhead×(B−1)). Values below 1 make
	// batching pay (amortised weight loading, cf. Figure 15c); 0 uses
	// the default 0.35. It prices prefill-paced steps — any step whose
	// batch contains at least one prefilling member.
	BatchOverhead float64
	// DecodeOverhead is the marginal step-time factor of each additional
	// sequence in a decode-only step (engine.DecodeStepTime). Decode is
	// memory-bandwidth-bound — the batch shares one weight stream and only
	// per-sequence KV reads scale with width — so its marginal cost is far
	// below prefill's; 0 uses the default 0.08.
	DecodeOverhead float64
	// Sched selects the scheduling policy controlling batch admission
	// and per-step prefill budgets: SchedFIFO (greedy admission,
	// whole-chunk prefill steps; "" means the same), SchedChunkedPrefill
	// (per-step prefill token budget, see PrefillBudget),
	// SchedDecodePriority (defer prefill admission while the batch
	// decodes, see StarveLimit), or SchedSLO (deadline-aware admission
	// against SLOTTFT).
	Sched string
	// PrefillBudget caps the prefill tokens one step may spend across
	// the batch's prefilling members under SchedChunkedPrefill,
	// splitting a joining request's prefill over multiple steps so
	// resident decoders keep near-decode cadence. 0 uses the default
	// 256; setting it with any other policy is a validation error.
	PrefillBudget int
	// StarveLimit bounds SchedDecodePriority's deferral: after this
	// many consecutive step boundaries where admission was deferred
	// while work waited, the replica admits one request regardless, so
	// prefill delay stays finite at overload. Under SchedSLO it is the
	// aging bound instead: a request waiting longer than
	// StarveLimit×SLOTTFT jumps to the front of the admission order, so
	// deprioritised late requests can't starve. 0 uses the default 8;
	// setting it with any other policy is a validation error.
	StarveLimit int
	// SLOTTFT is the per-request TTFT target in seconds: a request meets
	// its SLO only if its first token arrives within SLOTTFT of its
	// arrival. Required (> 0) by SchedSLO, whose admission order is
	// deadline-aware against this target; with any other policy it only
	// turns on the SLO attainment/goodput telemetry in Result, so sweeps
	// can measure fifo or chunked-prefill against the same targets.
	SLOTTFT float64
	// SLOTBT is the per-request mean time-between-tokens target in
	// seconds: a decode-enabled request meets its SLO only if its mean
	// TBT is within SLOTBT (prefill-only requests satisfy it trivially).
	// 0 leaves TBT out of the SLO.
	SLOTBT float64
	// PrefetchPolicy selects the asynchronous tier-prefetch behaviour:
	// PrefetchOff (synchronous loading, the baseline the async policies
	// are compared against; "" means the same), PrefetchOnEnqueue
	// (per-replica loaders promote each arriving request's chunks while
	// it queues) or PrefetchPredictive (on-enqueue plus popularity-driven
	// promotion of the hottest cold chunks on a queue-depth signal). The
	// active policies require a multi-tier hierarchy and a chunk-reusing
	// scheme (FullKVReuse or CacheBlend).
	PrefetchPolicy string
	// PrefetchBW is the loader's bandwidth budget as a fraction of the
	// source tier's read bandwidth, in (0, 1]; 0 uses the full device.
	// Setting it requires an active prefetch policy.
	PrefetchBW float64
	// Router selects the replica-routing topology: RouterShared (one
	// store and one admission queue for every replica, a single node; ""
	// means the same), RouterHash
	// (per-replica tier stacks, consistent chunk→replica hashing) or
	// RouterAffinity (per-replica tier stacks, overlap-scored routing
	// reusing the popularity estimator the predictive prefetcher ranks
	// with). The routed policies give every replica the full configured
	// tier stack — each replica models a node with its own hardware, so
	// a routed cluster has replicas× the shared baseline's aggregate
	// capacity, the way scaling out adds HBM — and require a
	// chunk-reusing scheme (FullKVReuse or CacheBlend).
	Router string
	// Events schedules replica-membership changes over the run: kills
	// (a node fails, its queued work re-routes to survivors) and joins
	// (a cold node is added under load). Events must be time-ordered;
	// see MembershipEvent for the per-event semantics. Empty keeps the
	// static replica set.
	Events []MembershipEvent
	// ChunkPool is the number of distinct chunks in the corpus.
	ChunkPool int
	// ChunksPerRequest is how many chunks each request retrieves.
	ChunksPerRequest int
	// ChunkTokens is the token length of each chunk.
	ChunkTokens int
	// QueryTokens is the fresh suffix length.
	QueryTokens int
	// Skew is the chunk popularity skew (sim.Zipf exponent).
	Skew float64
}

// replicas returns the effective replica count.
func (c Config) replicas() int {
	if c.Replicas <= 0 {
		return 1
	}
	return c.Replicas
}

// maxBatch returns the effective per-step batch cap.
func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 1
	}
	return c.MaxBatch
}

// batchOverhead returns the effective marginal batch cost factor.
func (c Config) batchOverhead() float64 {
	if c.BatchOverhead <= 0 {
		return 0.35
	}
	return c.BatchOverhead
}

// decodeOverhead returns the effective marginal decode-step width factor.
func (c Config) decodeOverhead() float64 {
	if c.DecodeOverhead <= 0 {
		return 0.08
	}
	return c.DecodeOverhead
}

// prefillBudget returns the effective chunked-prefill token budget.
func (c Config) prefillBudget() int {
	if c.PrefillBudget <= 0 {
		return 256
	}
	return c.PrefillBudget
}

// starveLimit returns the effective decode-priority aging bound.
func (c Config) starveLimit() int {
	if c.StarveLimit <= 0 {
		return 8
	}
	return c.StarveLimit
}

// sloOn reports whether the run populates the SLO attainment telemetry
// in Result: any per-request target is configured, whatever the policy,
// so sweeps can measure every policy against the same targets.
func (c Config) sloOn() bool { return c.SLOTTFT > 0 || c.SLOTBT > 0 }

// finite reports whether x is neither NaN nor infinite. Range checks
// alone let NaN through: every comparison with NaN is false.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// shards returns the effective store shard count.
func (c Config) shards() int {
	if c.StoreShards > 0 {
		return c.StoreShards
	}
	if c.replicas() == 1 {
		return 1 // exact global LRU when nothing contends
	}
	return 8
}

// tiered reports whether a multi-tier hierarchy is configured.
func (c Config) tiered() bool { return len(c.Tiers) > 0 }

// tierConfigs returns the effective hierarchy: the configured Tiers, or
// the single-device fallback built from Device and StoreCapacity.
func (c Config) tierConfigs() []TierConfig {
	if c.tiered() {
		return c.Tiers
	}
	return []TierConfig{{Device: c.Device, Capacity: c.StoreCapacity}}
}

// chunks returns the workload sampling parameters embedded in the config,
// for the Poisson wrapper and the CLI's generator construction.
func (c Config) chunks() workload.Chunks {
	return workload.Chunks{Pool: c.ChunkPool, PerRequest: c.ChunksPerRequest, Skew: c.Skew}
}

// Validate reports a descriptive error for configurations that used to
// panic deep inside the simulator (degenerate token counts, non-serving
// schemes, broken tier stacks). Workload sampling parameters (ChunkPool,
// ChunksPerRequest, Skew) are validated by the workload that uses them;
// here they only need to be non-negative.
func (c Config) Validate() error {
	switch c.Scheme {
	case baselines.FullRecompute, baselines.PrefixCaching, baselines.FullKVReuse, baselines.CacheBlend:
	default:
		return fmt.Errorf("scheme %q is not a serving mode", c.Scheme)
	}
	switch {
	case c.Spec.Layers <= 0:
		return fmt.Errorf("model spec %q: no layers", c.Spec.Name)
	case c.ChunkTokens <= 0:
		return fmt.Errorf("chunk tokens %d: must be positive", c.ChunkTokens)
	case c.QueryTokens < 0:
		return fmt.Errorf("query tokens %d: negative", c.QueryTokens)
	case !finite(c.Ratio) || c.Ratio < 0 || c.Ratio > 1:
		return fmt.Errorf("recompute ratio %v: must be in [0, 1]", c.Ratio)
	case c.ChunkPool < 0:
		return fmt.Errorf("chunk pool %d: negative", c.ChunkPool)
	case c.ChunksPerRequest < 0:
		return fmt.Errorf("chunks per request %d: negative", c.ChunksPerRequest)
	case !finite(c.Skew) || c.Skew < 0:
		return fmt.Errorf("chunk skew %v: must be finite and non-negative", c.Skew)
	case c.Replicas < 0:
		return fmt.Errorf("replicas %d: negative", c.Replicas)
	case c.MaxBatch < 0:
		return fmt.Errorf("max batch %d: negative", c.MaxBatch)
	case !finite(c.BatchOverhead) || c.BatchOverhead < 0:
		return fmt.Errorf("batch overhead %v: must be finite and non-negative", c.BatchOverhead)
	case !finite(c.DecodeOverhead) || c.DecodeOverhead < 0:
		return fmt.Errorf("decode overhead %v: must be finite and non-negative", c.DecodeOverhead)
	case c.StoreShards < 0:
		return fmt.Errorf("store shards %d: negative", c.StoreShards)
	case c.StoreCapacity < 0:
		return fmt.Errorf("store capacity %d: negative", c.StoreCapacity)
	case c.PrefillBudget < 0:
		return fmt.Errorf("prefill budget %d: negative", c.PrefillBudget)
	case c.StarveLimit < 0:
		return fmt.Errorf("starve limit %d: negative", c.StarveLimit)
	}
	switch c.Sched {
	case "", SchedFIFO, SchedChunkedPrefill, SchedDecodePriority, SchedSLO:
	default:
		return fmt.Errorf("scheduling policy %q: want %s, %s, %s or %s",
			c.Sched, SchedFIFO, SchedChunkedPrefill, SchedDecodePriority, SchedSLO)
	}
	if c.PrefillBudget > 0 && c.Sched != SchedChunkedPrefill && c.Sched != SchedSLO {
		return fmt.Errorf("prefill budget %d requires the %s or %s policy (got %q)",
			c.PrefillBudget, SchedChunkedPrefill, SchedSLO, c.Sched)
	}
	if c.StarveLimit > 0 && c.Sched != SchedDecodePriority && c.Sched != SchedSLO {
		return fmt.Errorf("starve limit %d requires the %s or %s policy (got %q)",
			c.StarveLimit, SchedDecodePriority, SchedSLO, c.Sched)
	}
	switch {
	case !finite(c.SLOTTFT) || c.SLOTTFT < 0:
		return fmt.Errorf("TTFT SLO target %v: must be finite and non-negative", c.SLOTTFT)
	case !finite(c.SLOTBT) || c.SLOTBT < 0:
		return fmt.Errorf("TBT SLO target %v: must be finite and non-negative", c.SLOTBT)
	}
	if c.Sched == SchedSLO && c.SLOTTFT <= 0 {
		return fmt.Errorf("the %s policy requires a TTFT target (set Config.SLOTTFT)", SchedSLO)
	}
	if err := c.validatePrefetch(); err != nil {
		return err
	}
	if err := c.validateRouter(); err != nil {
		return err
	}
	if err := c.validateEvents(); err != nil {
		return err
	}
	tiers := c.tierConfigs()
	for i, tc := range tiers {
		if err := tc.Device.Validate(); err != nil {
			return fmt.Errorf("tier %d: %w", i, err)
		}
		if tc.Capacity < 0 {
			return fmt.Errorf("tier %d (%s): negative capacity %d", i, tc.Device.Name, tc.Capacity)
		}
		if tc.Capacity == 0 && i < len(tiers)-1 {
			return fmt.Errorf("tier %d (%s): capacity 0 (unbounded) is only allowed on the bottom tier", i, tc.Device.Name)
		}
	}
	return nil
}

// Result summarises one simulated run. TTFT is measured at the request's
// first token (the prefill→decode transition); the batch-size histogram,
// queue depth, replica utilization, throughput and every decode metric
// use the same warmup cutoff TTFT does — samples from the warmup period
// (before the first post-warmup request arrives) are excluded everywhere.
type Result struct {
	Rate       float64 // offered request rate (req/s)
	MeanTTFT   float64
	P95TTFT    float64
	Throughput float64 // completed requests/s over the run
	HitRate    float64 // KV store hit rate over chunk lookups
	Requests   int
	// Replicas is the replica count the run used.
	Replicas int
	// MeanBatch is the mean executed batch size across post-warmup
	// replica steps.
	MeanBatch float64
	// BatchSizes histograms executed batch sizes (size → step count).
	BatchSizes map[int]int64
	// MeanQueueDepth is the admission-queue depth each post-warmup
	// arrival found (excluding itself).
	MeanQueueDepth float64
	// ReplicaUtil is each replica's busy fraction of the post-warmup run.
	ReplicaUtil []float64
	// Decode-phase telemetry, populated only when the stream generates
	// output tokens (some request carries DecodeTokens > 0); prefill-only
	// runs leave every field below zero.
	//
	// MeanTBT/P95TBT summarise time-between-tokens across all post-warmup
	// decode steps: the gap between one emitted token and the next, the
	// per-token latency a streaming client sees after the first token.
	MeanTBT float64 `json:",omitempty"`
	P95TBT  float64 `json:",omitempty"`
	// MeanE2E/P95E2E summarise end-to-end request latency (arrival to
	// last generated token).
	MeanE2E float64 `json:",omitempty"`
	P95E2E  float64 `json:",omitempty"`
	// OutputTokens counts post-warmup generated tokens (first tokens
	// included); TokenThroughput is OutputTokens per second over the
	// measured window.
	OutputTokens    int64   `json:",omitempty"`
	TokenThroughput float64 `json:",omitempty"`
	// PrefillStepShare, DecodeStepShare and MixedStepShare split the
	// post-warmup executed steps by batch composition: all members
	// prefilling, all decoding, or both phases interleaved (the
	// continuous-batching contention case where decode tokens are paced
	// by a neighbour's prefill chunk). They sum to 1.
	PrefillStepShare float64 `json:",omitempty"`
	DecodeStepShare  float64 `json:",omitempty"`
	MixedStepShare   float64 `json:",omitempty"`
	// Scheduling telemetry, reported by every run.
	//
	// StallTime sums, over post-warmup mixed steps, the decoder-seconds
	// lost to prefill pacing: (step duration − what a decode-only step
	// of the same width would have cost) × resident decoders. It is the
	// head-of-line blocking a scheduling policy is supposed to remove.
	StallTime float64 `json:",omitempty"`
	// MeanPrefillDelay/P95PrefillDelay summarise the wait between a
	// post-warmup request's arrival and its admission into a replica
	// batch — pure queueing under FIFO, queueing plus deferred
	// admission under decode-priority (bounded by StarveLimit).
	MeanPrefillDelay float64 `json:",omitempty"`
	P95PrefillDelay  float64 `json:",omitempty"`
	// SLO telemetry, populated only when per-request targets
	// (Config.SLOTTFT/SLOTBT) are configured. Every policy measures
	// against the same targets, so SLO sweeps compare like against like.
	//
	// SLOAttainment is the fraction of measured completed requests
	// meeting every configured target (TTFT ≤ SLOTTFT and mean TBT ≤
	// SLOTBT); SLOTTFTAttainment/SLOTBTAttainment split it by dimension
	// (each only when its target is set).
	SLOAttainment     float64 `json:",omitempty"`
	SLOTTFTAttainment float64 `json:",omitempty"`
	SLOTBTAttainment  float64 `json:",omitempty"`
	// Goodput is the SLO-met completion rate (requests/s over the
	// measured window) — the throughput that actually counts once
	// deadlines matter: a scheduler can buy throughput by finishing
	// hopeless requests ahead of feasible ones, and goodput is what that
	// trade destroys.
	Goodput float64 `json:",omitempty"`
	// SLOViolations counts measured completed requests that missed at
	// least one configured target.
	SLOViolations int64 `json:",omitempty"`
	// Prefetch telemetry, reported by every run (the transfer counters
	// stay zero unless loaders run).
	//
	// TierStallTime sums, over post-warmup admissions, the prefill
	// seconds attributable to chunks not being HBM-resident: the
	// request's priced load/blend cost (residual transfer waits included)
	// minus what the same hits would have cost had every one been on the
	// top tier. It is the time asynchronous prefetch exists to remove.
	TierStallTime float64 `json:",omitempty"`
	// PrefetchIssued counts transfers the loaders started; PrefetchHits
	// how many lookups a prefetch served (in-flight joins plus first
	// reads of completed promotions); PrefetchWastedBytes the transfer
	// bytes that never served a read (cancelled, orphaned, or demoted
	// unread).
	PrefetchIssued      int64 `json:",omitempty"`
	PrefetchHits        int64 `json:",omitempty"`
	PrefetchWastedBytes int64 `json:",omitempty"`
	// HBMHitRate is the effective top-tier hit rate: lookups served from
	// HBM or from a transfer already flying toward it, over all lookups.
	HBMHitRate float64 `json:",omitempty"`
	// Cluster-routing telemetry, reported by every run.
	//
	// Router names the effective policy ("shared" when Config.Router is
	// empty).
	Router string `json:",omitempty"`
	// ReplicaHitRates is each replica store's KV hit rate over its own
	// lookups — one entry per replica under the routed policies, a
	// single entry for the shared store otherwise.
	ReplicaHitRates []float64 `json:",omitempty"`
	// ReplicaRequests counts the requests each replica admitted into a
	// batch over the whole run (warmup included — it describes placement,
	// not service quality).
	ReplicaRequests []int64 `json:",omitempty"`
	// LoadSkew is the coefficient of variation of per-replica busy time
	// (0 = perfectly balanced). QueueSkew is the same statistic over the
	// per-replica mean queue depths sampled at each measured arrival —
	// routed policies only, the shared baseline has a single queue.
	LoadSkew  float64 `json:",omitempty"`
	QueueSkew float64 `json:",omitempty"`
	// DuplicationBytes is what the routed policies pay for per-replica
	// independence: bytes resident on more than one replica's tier stack
	// at run end, summed over the extra copies.
	DuplicationBytes int64 `json:",omitempty"`
	// Membership-event telemetry, zero unless Config.Events schedules
	// kills or joins.
	//
	// Failovers counts the kill events that fired; ReroutedRequests the
	// requests a kill drained off a dead node's queue and re-routed to a
	// survivor (their original arrivals are kept, so the failover cost
	// appears as queueing delay in TTFT, never as dropped samples).
	Failovers        int   `json:",omitempty"`
	ReroutedRequests int64 `json:",omitempty"`
	// ReWarmStall sums, over measured re-routed requests, the tier-read
	// stall their admissions paid on the surviving node — the re-warm
	// transient of traffic whose cache locality died with its replica.
	ReWarmStall float64 `json:",omitempty"`
	// RecoveryTime is the transient length after the first kill: time
	// from the event until the 1-second-windowed mean TTFT is back
	// within 20% of the pre-event mean (the full remaining horizon when
	// that never happens).
	RecoveryTime float64 `json:",omitempty"`
	// Lookups is the total chunk-store lookup count; Misses is how many
	// missed every tier. Sum of per-tier Hits plus Misses equals Lookups.
	Lookups, Misses int64
	// Tiers is the per-tier placement telemetry, fastest tier first (one
	// entry even for an untiered run).
	Tiers []TierUsage
	// Tenants is the per-tenant service breakdown, present only when the
	// workload is multi-tenant (some request carries a non-zero tenant),
	// ordered by tenant id. Single-tenant runs leave it nil.
	Tenants []TenantUsage `json:",omitempty"`
}

// TenantUsage is one tenant's slice of a run's service quality, over its
// post-warmup completed requests.
type TenantUsage struct {
	// Tenant is the tenant id the workload stamped on its requests.
	Tenant int
	// Requests is the tenant's completed post-warmup request count.
	Requests int
	MeanTTFT float64
	P95TTFT  float64
	// HitRate is the tenant's KV hit rate over its own chunk lookups
	// (Lookups); tenants sharing a store contend for it, so a bursty or
	// low-skew neighbour shows up here as a depressed hit rate.
	HitRate float64
	Lookups int64
	// Decode-phase telemetry, populated only for decode-enabled streams
	// (zero and omitted otherwise, like the Result aggregates).
	MeanTBT      float64 `json:",omitempty"`
	P95TBT       float64 `json:",omitempty"`
	MeanE2E      float64 `json:",omitempty"`
	OutputTokens int64   `json:",omitempty"`
	// SLOAttainment is the tenant's fraction of measured completed
	// requests meeting every configured target — populated only when
	// Config.SLOTTFT or SLOTBT is set, zero and omitted otherwise.
	SLOAttainment float64 `json:",omitempty"`
}

// TierUsage is one tier's share of a run's KV placement activity.
type TierUsage struct {
	// Device names the tier.
	Device string
	// Hits is how many lookups this tier served; HitRate is Hits over
	// all store lookups (hits and misses across the whole hierarchy).
	Hits    int64
	HitRate float64
	// Promotions counts chunks this tier lost upward on hit; Demotions
	// counts LRU victims it pushed down a tier.
	Promotions, Demotions int64
	// BytesResident is the tier's footprint when the run ended.
	BytesResident int64
}

// String renders the result as a table row; decode-enabled runs append
// the per-token and end-to-end latency columns.
func (r Result) String() string {
	s := fmt.Sprintf("rate=%.2f mean_ttft=%.3fs p95=%.3fs tput=%.2f hit=%.0f%% replicas=%d batch=%.1f qdepth=%.1f",
		r.Rate, r.MeanTTFT, r.P95TTFT, r.Throughput, r.HitRate*100, r.Replicas, r.MeanBatch, r.MeanQueueDepth)
	if r.OutputTokens > 0 {
		s += fmt.Sprintf(" tbt=%.3fs p95_tbt=%.3fs e2e=%.3fs tok/s=%.1f",
			r.MeanTBT, r.P95TBT, r.MeanE2E, r.TokenThroughput)
	}
	return s
}

// Run simulates n requests arriving at the given Poisson rate and returns
// aggregate TTFT/throughput statistics. The first warmup requests are
// excluded from statistics (the paper skips its first 1 000 queries while
// the store is cold). Same cfg, rate and seed ⇒ identical Result.
//
// Run is a thin wrapper: it builds a Poisson workload from the config's
// sampling fields and panics on invalid input — the validation errors are
// RunWorkload's, so the message still names the broken field.
func Run(cfg Config, rate float64, n, warmup int, seed int64) Result {
	w := workload.Poisson{Rate: rate, Chunks: cfg.chunks()}
	res, err := RunWorkload(cfg, w, n, warmup, seed)
	if err != nil {
		// Reject here, on the caller's goroutine, rather than mid-run on
		// a replica process.
		panic(err.Error())
	}
	res.Rate = rate // report the offered rate, not the realised one
	return res
}

// RunWorkload simulates the first n requests of the stream w yields and
// returns aggregate and per-tenant statistics, excluding the first warmup
// requests. Everything is validated up front with descriptive errors
// instead of panics. Result.Rate is the stream's realised mean arrival
// rate (so a replayed trace reproduces the generating run's Result field
// for field). Same cfg, workload and seed ⇒ identical Result.
//
// A workload implementing workload.ClosedLoopWorkload is driven in
// closed loop instead: arrivals come from the workload's Session, fed
// each request's completion at member retirement, so offered load
// self-throttles with service quality the way a finite client pool does.
func RunWorkload(cfg Config, w workload.Workload, n, warmup int, seed int64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("serve: %w", err)
	}
	if err := w.Validate(); err != nil {
		return Result{}, fmt.Errorf("serve: workload: %w", err)
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("serve: n = %d: need at least one request", n)
	}
	if warmup < 0 {
		return Result{}, fmt.Errorf("serve: warmup = %d: negative", warmup)
	}
	if cw, ok := w.(workload.ClosedLoopWorkload); ok {
		return runClosedLoop(cfg, cw, n, warmup, seed)
	}
	reqs := w.Generate(n, seed)
	if len(reqs) == 0 {
		return Result{}, fmt.Errorf("serve: workload %s yielded no requests", w.Name())
	}
	if warmup >= len(reqs) {
		return Result{}, fmt.Errorf("serve: warmup %d must be below the stream's %d requests", warmup, len(reqs))
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return Result{}, fmt.Errorf("serve: workload %s: request %d: %w", w.Name(), i, err)
		}
		if i > 0 && reqs[i].Arrival < reqs[i-1].Arrival {
			return Result{}, fmt.Errorf("serve: workload %s: request %d arrives at %v, before request %d at %v",
				w.Name(), i, reqs[i].Arrival, i-1, reqs[i-1].Arrival)
		}
	}
	res := newCluster(cfg, reqs, warmup).run()
	if last := reqs[len(reqs)-1].Arrival; last > 0 {
		res.Rate = float64(len(reqs)) / last
	}
	return res, nil
}

// runClosedLoop drives a closed-loop session: the initial wave (each
// client's first request) is validated and dispatched like an open-loop
// stream, and every later arrival is issued by the session when the
// runtime reports a completion. Result.Rate is the realised arrival rate
// — under a closed loop it is an output of the run, not an input.
func runClosedLoop(cfg Config, w workload.ClosedLoopWorkload, n, warmup int, seed int64) (Result, error) {
	if warmup >= n {
		return Result{}, fmt.Errorf("serve: warmup %d must be below the run's %d requests", warmup, n)
	}
	if cfg.hasEvents() {
		// A kill re-queues in-flight work with original arrivals — under
		// feedback-driven arrivals that replay has no meaning yet.
		return Result{}, fmt.Errorf("serve: membership events are not supported with a closed-loop workload")
	}
	sess := w.Session(n, seed)
	init := sess.Initial()
	if len(init) == 0 {
		return Result{}, fmt.Errorf("serve: workload %s yielded no requests", w.Name())
	}
	for i, iss := range init {
		if err := iss.Req.Validate(); err != nil {
			return Result{}, fmt.Errorf("serve: workload %s: initial request %d: %w", w.Name(), i, err)
		}
		if iss.Client < 0 || iss.Client >= sess.Clients() {
			return Result{}, fmt.Errorf("serve: workload %s: initial request %d from unknown client %d",
				w.Name(), i, iss.Client)
		}
		if i > 0 && iss.Req.Arrival < init[i-1].Req.Arrival {
			return Result{}, fmt.Errorf("serve: workload %s: initial request %d arrives at %v, before request %d at %v",
				w.Name(), i, iss.Req.Arrival, i-1, init[i-1].Req.Arrival)
		}
	}
	c := newClosedCluster(cfg, sess, init, n, warmup)
	res := c.run()
	if last := c.reqs[len(c.reqs)-1].arrival; last > 0 {
		res.Rate = float64(len(c.reqs)) / last
	}
	return res, nil
}

// serviceTime computes one request's prefill service time under the
// scheme, updating replica si's KV store, and reports the request's store
// lookup and hit counts for per-tenant accounting plus its tier-read
// stall (the priced cost beyond an all-HBM request). It is evaluated when the request is admitted into a
// replica's batch, against the store's state at that moment, and sizes the prompt
// from the request's own chunk list — trace-replayed requests may
// retrieve any number of chunks. Hits are charged the read time of the
// tier the chunk was found on — or, for a chunk whose promotion is
// already in flight, the transfer's residual wait; for CacheBlend each
// tier's reused tokens recompute at the ratio the loading controller
// picks for that tier's device (§5.1).
//
// Lookups and inserts run in two passes — every lookup resolves against
// the store's pre-request state before any miss is inserted — so a
// miss-insert can no longer demote or evict a chunk the same request
// already counted (and priced) as a hit at a now-wrong tier.
func (c *cluster) serviceTime(si int, ids []int, now float64) (secs float64, lookups, hits int64, stall float64) {
	cfg, store, chunkBytes := &c.cfg, c.stores[si], c.chunkBytes
	L := len(ids)*cfg.ChunkTokens + cfg.QueryTokens
	spec := &cfg.Spec
	if c.chunkSized == nil {
		// Boxed once, shared by every context-chunk insert of the run.
		c.chunkSized = kvstore.Bytes(chunkBytes)
	}
	switch cfg.Scheme {
	case baselines.FullRecompute:
		return spec.FullPrefillTTFT(L), 0, 0, 0

	case baselines.PrefixCaching:
		// Only a position-0 hit helps (§3.2). Following the paper's
		// idealised assumption, loading the prefix KV is free.
		key := prefixKey(spec.Name, ids[0])
		_, _, hit := store.Get(key)
		if !hit {
			store.Put(key, c.chunkSized) //nolint:errcheck
			return spec.FullPrefillTTFT(L), 1, 0, 0
		}
		rest := L - cfg.ChunkTokens
		return spec.Prefill(rest) + spec.DecodeSecPerToken, 1, 1, 0

	case baselines.FullKVReuse, baselines.CacheBlend:
		found := 0
		// Cluster-owned scratch, reset per call: a request's chunk list is
		// short, so a linear scan of the pending misses replaces the old
		// per-call map, and the tier histogram and key slices are reused
		// across every admission of the run.
		depth := store.Depth()
		if cap(c.tierScratch) < depth {
			c.tierScratch = make([]int, depth)
		}
		tierChunks := c.tierScratch[:depth] // hit chunks per tier
		for i := range tierChunks {
			tierChunks[i] = 0
		}
		var waitCost float64 // residual in-flight transfer waits
		missKeys, dupKeys := c.missScratch[:0], c.dupScratch[:0]
		for _, id := range ids {
			key := c.chunkKeyOf(id)
			pending := false // key already missed by this request, awaiting insert
			for _, k := range missKeys {
				if k == key {
					pending = true
					break
				}
			}
			if pending {
				// A repeat of a key this request will insert: resolved in
				// the second pass, against the inserted copy.
				dupKeys = append(dupKeys, key)
				continue
			}
			tier, wait, ok := c.lookup(si, key, now)
			if !ok {
				missKeys = append(missKeys, key)
				continue
			}
			found++
			if wait > 0 && wait+c.chunkCost(si, 0) <= c.chunkCost(si, tier) {
				// In-flight join: pay the transfer's remaining time, then
				// read the chunk where it is landing — the top tier. Only
				// when that beats reading the source tier directly: the
				// engine can always fall back to the synchronous read a
				// transfer too far from arrival would lose to.
				waitCost += wait
				tier = 0
			}
			tierChunks[tier]++
		}
		for _, key := range missKeys {
			store.Put(key, c.chunkSized) //nolint:errcheck
		}
		for _, key := range dupKeys {
			if tier, _, ok := c.lookup(si, key, now); ok {
				found++
				tierChunks[tier]++
			}
		}
		// Hand the (possibly grown) scratch back for the next admission.
		c.missScratch, c.dupScratch = missKeys, dupKeys
		lookups, hits = int64(len(ids)), int64(found)
		missTokens := (len(ids)-found)*cfg.ChunkTokens + cfg.QueryTokens
		missCost := spec.Prefill(missTokens)
		if cfg.Scheme == baselines.FullKVReuse {
			var loadCost float64
			for tier, n := range tierChunks {
				loadCost += store.TierDevice(tier).ReadTime(int64(n) * chunkBytes)
			}
			loadCost += waitCost
			return loadCost + missCost + spec.DecodeSecPerToken, lookups, hits,
				c.reuseStall(si, loadCost, waitCost, tierChunks, found)
		}
		// CacheBlend: selective recompute of the reused tokens, pipelined
		// with their loading (§5) per the engine's loader/fusor schedule,
		// tier by tier; missing chunks and the query are full prefill.
		var blendCost float64
		for tier, n := range tierChunks {
			if n == 0 {
				continue
			}
			d := store.TierDevice(tier)
			tokens := n * cfg.ChunkTokens
			blendCost += pipelineCost(spec, c.chunkRatio(tokens, d), tokens, d)
		}
		blendCost += waitCost
		return blendCost + missCost + spec.DecodeSecPerToken, lookups, hits,
			c.reuseStall(si, blendCost, waitCost, tierChunks, found)

	default:
		panic(fmt.Sprintf("serve: scheme %q is not a serving mode", cfg.Scheme))
	}
}

// chunkCost prices reusing one resident chunk off the given tier of
// replica si's store under the config's scheme — the per-chunk comparison
// deciding whether an in-flight join beats a synchronous source-tier read.
func (c *cluster) chunkCost(si, tier int) float64 {
	d := c.stores[si].TierDevice(tier)
	if c.cfg.Scheme == baselines.FullKVReuse {
		return d.ReadTime(c.chunkBytes)
	}
	tokens := c.cfg.ChunkTokens
	return pipelineCost(&c.cfg.Spec, c.chunkRatio(tokens, d), tokens, d)
}

// reuseStall is the request's tier-read stall: its priced reuse cost
// (waits included) beyond what the same found chunks would have cost had
// every one been HBM-resident — the hypothetical cost is computed through
// the same per-tier pricing with all hits moved to tier 0, so fixed
// per-tier latency terms cancel. A request that waited on no transfer and
// found every hit on the top tier stalls exactly zero (both costs are the
// same expression), so it skips the repricing.
func (c *cluster) reuseStall(si int, cost, wait float64, tierChunks []int, found int) float64 {
	if wait == 0 && tierChunks[0] == found {
		return 0
	}
	cfg, store := &c.cfg, c.stores[si]
	var hotCost float64
	if cfg.Scheme == baselines.FullKVReuse {
		for tier := range tierChunks {
			n := 0
			if tier == 0 {
				n = found
			}
			hotCost += store.TierDevice(tier).ReadTime(int64(n) * c.chunkBytes)
		}
	} else if found > 0 {
		d := store.TierDevice(0)
		tokens := found * cfg.ChunkTokens
		hotCost = pipelineCost(&cfg.Spec, c.chunkRatio(tokens, d), tokens, d)
	}
	if stall := cost - hotCost; stall > 0 {
		return stall
	}
	return 0
}

// chunkRatio is the recompute ratio for reusing `tokens` of KV resident
// on d. Untiered runs keep the configured fixed ratio (the paper's
// single-device setup); tiered runs ask the loading controller for the
// largest ratio the tier's loading delay hides, floored at Config.Ratio.
func (c *cluster) chunkRatio(tokens int, d device.Device) float64 {
	if !c.tiered {
		return c.cfg.Ratio
	}
	ctl := controller.Controller{Spec: c.cfg.Spec, QualityFloor: c.cfg.Ratio}
	return ctl.PickRatio(tokens, d)
}

// pipelineCost is the pipelined load+recompute time for reusing hitTokens
// of KV (zero when nothing is reused), per the engine's two-thread
// loader/fusor schedule.
func pipelineCost(spec *timing.Spec, ratio float64, hitTokens int, d device.Device) float64 {
	if hitTokens == 0 {
		return 0
	}
	loadLayer := d.ReadTime(spec.LayerBytes(hitTokens))
	compLayer := spec.RecomputeLayer(ratio, hitTokens)
	return engine.PipelineTime(spec.Layers, loadLayer, compLayer)
}

// chunkKey is the store key of context chunk id under the named model.
func chunkKey(model string, id int) chunk.ID {
	return chunk.Hash(model, []int{id})
}

// prefixKey is the store key of a prefix-cache entry starting at chunk id.
func prefixKey(model string, id int) chunk.ID {
	return chunk.Hash(model+"/prefix0", []int{id})
}

// Capacity returns the maximum sustainable request rate of a single
// replica without batching: the reciprocal of the steady-state mean
// service time, measured by probing the simulator at a very low rate.
func Capacity(cfg Config, seed int64) float64 {
	probe := cfg
	probe.Replicas = 1
	probe.MaxBatch = 1
	res := Run(probe, 0.01, 400, 100, seed)
	if res.MeanTTFT <= 0 {
		return 0
	}
	return 1 / res.MeanTTFT
}

// SaturationRate measures the configuration's maximum sustained
// completion rate — replicas and continuous batching included — by
// offering far more load than one replica can absorb and measuring the
// completed-request throughput.
func SaturationRate(cfg Config, seed int64) float64 {
	perReplica := Capacity(cfg, seed)
	if perReplica <= 0 {
		return 0
	}
	overload := 4 * perReplica * float64(cfg.replicas()*cfg.maxBatch())
	res := Run(cfg, overload, 600, 150, seed)
	return res.Throughput
}
