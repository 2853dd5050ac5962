package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/timing"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace-replay results")

// goldenCase is one replayed serving trace: fixed seed, scheme, replica
// count, placement and workload. The full Result is compared against the
// checked-in golden, so any drift in the scheduler, the store's
// eviction/promotion order, the workload generators, or the timing model
// fails loudly.
type goldenCase struct {
	Name     string
	Scheme   baselines.Scheme
	Replicas int
	Tiered   bool
	Seed     int64
	// Workload selects the arrival generator: "" is the Poisson path
	// through serve.Run (those goldens predate the workload subsystem and
	// double as its seed-compatibility check), the others go through
	// RunWorkload.
	Workload string
	// Sched selects the scheduling policy ("" = fifo; the policy cases
	// lock the chunked-prefill and decode-priority schedules the way the
	// other cases lock fifo).
	Sched string
	// Prefetch selects the tier-prefetch policy ("" = off; the active
	// policies lock the loader processes' transfer schedules).
	Prefetch string
	// Router selects the replica-routing policy ("" = shared; the routed
	// cases lock the ring ownership and affinity-score schedules plus the
	// skew/duplication telemetry).
	Router string
	// Failover adds a membership schedule — kill one replica at ~40% of
	// the trace, join a cold one at ~70% — locking the drain/re-route
	// order and the failover telemetry (Failovers, ReroutedRequests,
	// ReWarmStall, RecoveryTime).
	Failover bool
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, scheme := range []baselines.Scheme{baselines.CacheBlend, baselines.PrefixCaching} {
		for _, replicas := range []int{1, 2, 4} {
			for _, tiered := range []bool{false, true} {
				for _, seed := range []int64{1, 7} {
					name := string(scheme) + "/r" + strconv.Itoa(replicas) + "/"
					if tiered {
						name += "tiered"
					} else {
						name += "flat"
					}
					name += "/seed" + strconv.FormatInt(seed, 10)
					cases = append(cases, goldenCase{Name: name, Scheme: scheme,
						Replicas: replicas, Tiered: tiered, Seed: seed})
				}
			}
		}
	}
	// Workload-subsystem cases: bursty on/off, multi-tenant mixes and
	// decode-enabled (two-phase prefill+decode) runs locked the same way.
	for _, wl := range []string{"bursty", "multi-tenant", "decode", "decode-tenants"} {
		for _, tiered := range []bool{false, true} {
			for _, seed := range []int64{1, 7} {
				name := "cacheblend/r2/"
				if tiered {
					name += "tiered"
				} else {
					name += "flat"
				}
				name += "/" + wl + "/seed" + strconv.FormatInt(seed, 10)
				cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
					Replicas: 2, Tiered: tiered, Seed: seed, Workload: wl})
			}
		}
	}
	// Scheduling-policy cases on the decode workload (mixed batches are
	// where the policies differ): fifo by name, chunked-prefill the
	// budgeted token-granularity stepping, decode-priority the deferred
	// admission with its aging bound.
	for _, sched := range []string{SchedFIFO, SchedChunkedPrefill, SchedDecodePriority} {
		for _, tiered := range []bool{false, true} {
			for _, seed := range []int64{1, 7} {
				name := "cacheblend/r2/"
				if tiered {
					name += "tiered"
				} else {
					name += "flat"
				}
				name += "/decode/" + sched + "/seed" + strconv.FormatInt(seed, 10)
				cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
					Replicas: 2, Tiered: tiered, Seed: seed, Workload: "decode", Sched: sched})
			}
		}
	}
	// Prefetch cases on bursty tiered traffic with popularity drift —
	// queueing delay is the overlap the loaders exploit, drift is what
	// the predictive policy's decayed popularity ranking must follow.
	for _, pf := range []string{PrefetchOff, PrefetchOnEnqueue, PrefetchPredictive} {
		for _, seed := range []int64{1, 7} {
			name := "cacheblend/r2/tiered/bursty-drift/" + pf + "/seed" + strconv.FormatInt(seed, 10)
			cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
				Replicas: 2, Tiered: true, Seed: seed, Workload: "bursty-drift", Prefetch: pf})
		}
	}
	// Router cases on the multi-tenant mix over tiered placement — the
	// workload whose per-tenant corpora the routed policies partition.
	// shared is the single-node baseline; hash locks the ring ownership,
	// affinity the score/touch schedule, both with their skew and
	// duplication accounting.
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		for _, seed := range []int64{1, 7} {
			name := "cacheblend/r4/tiered/multi-tenant/router-" + router + "/seed" + strconv.FormatInt(seed, 10)
			cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
				Replicas: 4, Tiered: true, Seed: seed, Workload: "multi-tenant", Router: router})
		}
	}
	// Failover cases: the router cases re-run under a membership schedule
	// (kill + cold join), locking the queue-drain order, the ring surgery
	// and the re-warm/recovery accounting per policy.
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		for _, seed := range []int64{1, 7} {
			name := "cacheblend/r4/tiered/multi-tenant/failover-" + router + "/seed" + strconv.FormatInt(seed, 10)
			cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
				Replicas: 4, Tiered: true, Seed: seed, Workload: "multi-tenant", Router: router,
				Failover: true})
		}
	}
	// Closed-loop decode cases, shaped like the serve-closed-decode
	// benchmark: one replica, 3 tenants × 8 clients issuing long
	// generations under the deadline-aware slo scheduler. They lock the
	// per-token decode-KV appends, the TBT reductions (run-wide and per
	// tenant) and the completion-driven arrival schedule.
	for _, tiered := range []bool{false, true} {
		for _, seed := range []int64{1, 7} {
			name := "cacheblend/r1/"
			if tiered {
				name += "tiered"
			} else {
				name += "flat"
			}
			name += "/closed-decode/slo/seed" + strconv.FormatInt(seed, 10)
			cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
				Replicas: 1, Tiered: tiered, Seed: seed, Workload: "closed-decode", Sched: SchedSLO})
		}
	}
	// Routed-tiered cases, shaped like the serve-routed-tiered benchmark:
	// four replicas with one HBM → RAM → slow-SSD stack each, affinity
	// routing and predictive prefetch over four bursty drifting tenants.
	// The HBM tier is eight one-chunk shards, so nearly every admission
	// promotes and cascades; they lock every tier move the stacks make,
	// the loaders' transfers and their in-flight joins.
	for _, seed := range []int64{1, 7} {
		name := "cacheblend/r4/tiered/routed-tiered/affinity-predictive/seed" + strconv.FormatInt(seed, 10)
		cases = append(cases, goldenCase{Name: name, Scheme: baselines.CacheBlend,
			Replicas: 4, Tiered: true, Seed: seed, Workload: "routed-tiered",
			Router: RouterAffinity, Prefetch: PrefetchPredictive})
	}
	return cases
}

// run executes the case: Poisson cases through serve.Run, workload cases
// through RunWorkload.
func (gc goldenCase) run(t *testing.T) Result {
	t.Helper()
	cfg := gc.config()
	const rate, n, warmup = 0.5, 150, 50
	chunks := workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}
	var w workload.Workload
	switch gc.Workload {
	case "":
		return Run(cfg, rate, n, warmup, gc.Seed)
	case "bursty":
		w = workload.Bursty{Rate: rate, Burst: 8, Chunks: chunks}
	case "bursty-drift":
		// Burstier than the plain bursty case: the prefetch policies only
		// differ when arrivals actually queue.
		drifting := chunks
		drifting.DriftPeriod = 60
		w = workload.Bursty{Rate: rate, Burst: 24, Chunks: drifting}
	case "multi-tenant":
		w = workload.TenantMix(3, rate, chunks, 120, workload.Decode{})
	case "decode":
		w = workload.Poisson{Rate: rate, Chunks: chunks, Decode: workload.Decode{Mean: 24}}
	case "decode-tenants":
		w = workload.TenantMix(3, rate, chunks, 120, workload.Decode{Mean: 16})
	case "closed-decode":
		w = workload.ClosedLoop{Tenants: 3, Clients: 8, Think: 2, Chunks: chunks,
			Decode: workload.Decode{Mean: 128}}
	case "routed-tiered":
		tenants := make([]workload.Workload, 4)
		for i := range tenants {
			tenants[i] = workload.Bursty{Rate: 2, Burst: 4, Chunks: workload.Chunks{
				Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48, DriftPeriod: 60}}
		}
		w = workload.MultiTenant{Tenants: tenants}
	default:
		t.Fatalf("unknown golden workload %q", gc.Workload)
	}
	res, err := RunWorkload(cfg, w, n, warmup, gc.Seed)
	if err != nil {
		t.Fatalf("%s: %v", gc.Name, err)
	}
	return res
}

func (gc goldenCase) config() Config {
	cfg := Config{
		Spec:             timing.Mistral7B,
		Scheme:           gc.Scheme,
		Ratio:            0.15,
		Device:           device.NVMeSSD,
		Replicas:         gc.Replicas,
		MaxBatch:         3,
		Sched:            gc.Sched,
		PrefetchPolicy:   gc.Prefetch,
		Router:           gc.Router,
		ChunkPool:        150,
		ChunksPerRequest: 6,
		ChunkTokens:      512,
		QueryTokens:      32,
		Skew:             0.9,
	}
	if gc.Sched == SchedSLO {
		// The serve-closed-decode targets: the slo policy orders admission
		// by the TTFT deadline, and both targets feed the attainment rows.
		cfg.MaxBatch, cfg.SLOTTFT, cfg.SLOTBT = 8, 2, 0.05
	}
	if gc.Failover {
		// ~285 s trace, warmup cutoff ~115 s: both events land in the
		// measured window.
		cfg.Events = []MembershipEvent{{At: 120, Kill: 1}, {At: 200, Join: 1}}
	}
	total := int64(60) * cfg.Spec.KVBytes(cfg.ChunkTokens)
	if gc.Tiered {
		cfg.Tiers = []TierConfig{
			{Device: device.GPUHBM, Capacity: total / 6},
			{Device: device.CPURAM, Capacity: total / 3},
			{Device: device.NVMeSSD, Capacity: total - total/6 - total/3},
		}
	} else {
		cfg.StoreCapacity = total
	}
	if gc.Workload == "routed-tiered" {
		chunkBytes := cfg.Spec.KVBytes(cfg.ChunkTokens)
		cfg.MaxBatch, cfg.QueryTokens = 4, 128
		cfg.Tiers = []TierConfig{
			{Device: device.GPUHBM, Capacity: 8 * chunkBytes},
			{Device: device.CPURAM, Capacity: 48 * chunkBytes},
			{Device: device.SlowSSD},
		}
	}
	return cfg
}

// TestGoldenTraceReplay replays fixed serving traces across schemes ×
// replica counts × tiered/flat placement and compares every Result field
// against the checked-in goldens. Regenerate intentionally with
//
//	go test ./internal/serve -run TestGoldenTraceReplay -update
//
// and review the diff: a golden change IS a behaviour change.
func TestGoldenTraceReplay(t *testing.T) {
	results := map[string]Result{}
	for _, gc := range goldenCases() {
		results[gc.Name] = gc.run(t)
	}
	path := filepath.Join("testdata", "golden_trace_replay.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", path, len(results))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update once): %v", err)
	}
	var want map[string]Result
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(results) {
		t.Fatalf("golden has %d cases, run produced %d — regenerate with -update", len(want), len(results))
	}
	for name, got := range results {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry — regenerate with -update", name)
			continue
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s drifted:\n got %s\nwant %s", name, gj, wj)
		}
	}
}

// TestGoldenReplayDeterministic: two in-process replays of the same case
// must agree bit-for-bit — the property the golden file relies on — for
// the Poisson path and for each workload-generated path.
func TestGoldenReplayDeterministic(t *testing.T) {
	var cases []goldenCase
	for _, wl := range []string{"", "bursty", "multi-tenant", "decode", "decode-tenants"} {
		cases = append(cases, goldenCase{Name: "det/" + wl, Scheme: baselines.CacheBlend,
			Replicas: 4, Tiered: true, Seed: 3, Workload: wl})
	}
	for _, sched := range []string{SchedChunkedPrefill, SchedDecodePriority} {
		cases = append(cases, goldenCase{Name: "det/" + sched, Scheme: baselines.CacheBlend,
			Replicas: 4, Tiered: true, Seed: 3, Workload: "decode", Sched: sched})
	}
	for _, pf := range []string{PrefetchOff, PrefetchOnEnqueue, PrefetchPredictive} {
		cases = append(cases, goldenCase{Name: "det/prefetch-" + pf, Scheme: baselines.CacheBlend,
			Replicas: 4, Tiered: true, Seed: 3, Workload: "bursty-drift", Prefetch: pf})
	}
	for _, gc := range cases {
		a, _ := json.Marshal(gc.run(t))
		b, _ := json.Marshal(gc.run(t))
		if string(a) != string(b) {
			t.Fatalf("%s replay not deterministic:\n%s\n%s", gc.Name, a, b)
		}
	}
}
