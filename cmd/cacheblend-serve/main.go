// Command cacheblend-serve runs the discrete-event serving simulation for
// one configuration and prints a TTFT/throughput profile across request
// rates — an interactive version of the Figure 14 experiment, extended
// with workload generators and trace record/replay.
//
// Usage:
//
//	cacheblend-serve -model Mistral-7B -scheme cacheblend -rates 0.2,0.5,1,2
//	cacheblend-serve -model Yi-34B -scheme prefix-caching -capacity 64
//	cacheblend-serve -replicas 4 -batch 8
//	cacheblend-serve -tiers gpu-hbm:8,cpu-ram:64,nvme-ssd:0 -v
//	cacheblend-serve -workload bursty -burst 8 -rates 1
//	cacheblend-serve -tenants 3 -rates 1 -v
//	cacheblend-serve -decode 64 -batch 8 -rates 0.5 -v
//	cacheblend-serve -decode 32 -decode-dist fixed -rates 1
//	cacheblend-serve -sched chunked-prefill -decode 64 -batch 8 -rates 0.5 -v
//	cacheblend-serve -sched decode-priority -decode 64 -batch 8 -rates 0.5 -v
//	cacheblend-serve -tiers gpu-hbm:8,cpu-ram:24,nvme-ssd:0 -prefetch predictive -workload bursty -burst 24 -rates 0.5 -v
//	cacheblend-serve -tiers gpu-hbm:8,cpu-ram:24,nvme-ssd:0 -prefetch on-enqueue -rates 0.5
//	cacheblend-serve -router affinity -replicas 4 -tiers gpu-hbm:8,cpu-ram:48,slow-ssd:0 -tenants 4 -rates 8 -v
//	cacheblend-serve -router affinity -replicas 4 -tiers gpu-hbm:8,cpu-ram:48,slow-ssd:0 -tenants 4 -rates 16 -kill 15:1 -join 26:1 -v
//	cacheblend-serve -workload bursty -rates 1 -record run.jsonl
//	cacheblend-serve -trace run.jsonl     # bit-identical replay
//	cacheblend-serve -closed-loop 6 -tenants 3 -think 2 -decode 32 -batch 8 -v
//	cacheblend-serve -closed-loop 12 -tenants 3 -sched slo -slo-ttft 2 -slo-tbt 0.05 -decode 32 -batch 8 -v
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/workload"
)

func main() {
	var (
		modelName = flag.String("model", "Mistral-7B", "served model (Mistral-7B, Yi-34B, Llama-70B)")
		scheme    = flag.String("scheme", "cacheblend", "serving scheme (cacheblend, full-recompute, prefix-caching, full-kv-reuse)")
		ratesCSV  = flag.String("rates", "", "comma-separated request rates (req/s); default spans the model's capacity")
		devName   = flag.String("device", "nvme-ssd", "KV storage device")
		ratio     = flag.Float64("ratio", 0.15, "CacheBlend recompute ratio")
		capacity  = flag.Int("capacity", 0, "store capacity in contexts (0 = unbounded)")
		tiersSpec = flag.String("tiers", "", "tiered KV placement as device:contexts pairs, fastest first, e.g. gpu-hbm:8,cpu-ram:64,nvme-ssd:0 (0 = unbounded, bottom only); overrides -device/-capacity")
		pool      = flag.Int("pool", 1500, "distinct chunks in the corpus")
		chunks    = flag.Int("chunks", 6, "chunks per request")
		chunkTok  = flag.Int("chunk-tokens", 512, "tokens per chunk")
		replicas  = flag.Int("replicas", 1, "model replicas pulling from the shared queue")
		batch     = flag.Int("batch", 1, "continuous-batching cap per replica step")
		sched     = flag.String("sched", "", "scheduling policy (fifo, chunked-prefill, decode-priority, slo); empty = fifo")
		sloTTFT   = flag.Float64("slo-ttft", 0, "TTFT SLO target in seconds (the slo policy schedules against it, any policy reports attainment)")
		sloTBT    = flag.Float64("slo-tbt", 0, "mean-TBT SLO target in seconds")
		prefetch  = flag.String("prefetch", "", "tier prefetch policy (off, on-enqueue, predictive); empty = off")
		router    = flag.String("router", "", "replica-routing policy (shared, hash, affinity); empty = shared; hash/affinity give each replica its own tier stack")
		killSpec  = flag.String("kill", "", "membership kills as time:replica pairs, e.g. 15:1,40:2 (times in simulated seconds)")
		joinSpec  = flag.String("join", "", "membership joins as time:count pairs, e.g. 26:1 (cold replicas added at the time)")
		n         = flag.Int("n", 1500, "requests per rate point")
		seed      = flag.Int64("seed", 42, "workload seed")
		verbose   = flag.Bool("v", false, "print per-replica utilization, batch histograms and per-tenant stats")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation runs to this file")
		memProf   = flag.String("memprofile", "", "write a pprof allocation profile (after the runs) to this file")

		workloadName = flag.String("workload", "poisson", "arrival generator (poisson, bursty, diurnal)")
		burst        = flag.Float64("burst", 8, "bursty workload's peak-to-mean rate factor")
		amplitude    = flag.Float64("amplitude", 0.8, "diurnal workload's relative rate swing in [0,1]")
		tenants      = flag.Int("tenants", 1, "tenant count: >1 runs a multi-tenant Poisson mix (disjoint corpus slices, fanned-out skew, drifting popularity)")
		decodeMean   = flag.Float64("decode", 0, "mean generation length in output tokens (0 = prefill only)")
		decodeDist   = flag.String("decode-dist", "geometric", "generation-length distribution: geometric or fixed")
		tracePath    = flag.String("trace", "", "replay a recorded JSONL trace instead of generating a workload")
		recordPath   = flag.String("record", "", "record the generated request stream to a JSONL trace (requires exactly one rate)")
		closedLoop   = flag.Int("closed-loop", 0, "closed-loop clients per tenant (0 = open-loop arrivals); each client waits for its completion plus a think-time draw before the next request, so the realised rate is an output and -rates does not apply")
		think        = flag.Float64("think", 2, "closed-loop mean think time in seconds between a client's completion and its next request (requires -closed-loop)")
	)
	flag.Parse()

	// Counts the runtime would otherwise quietly reinterpret: a negative
	// capacity as unbounded, fewer than one tenant as one, a negative
	// client pool as open loop.
	switch {
	case *capacity < 0:
		fatal(fmt.Errorf("-capacity %d: must be ≥ 0 (0 = unbounded)", *capacity))
	case *tenants < 1:
		fatal(fmt.Errorf("-tenants %d: must be ≥ 1", *tenants))
	case *closedLoop < 0:
		fatal(fmt.Errorf("-closed-loop %d: must be ≥ 0 (0 = open loop)", *closedLoop))
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *tracePath != "" && set["workload"] {
		fatal(fmt.Errorf("-trace replays a recorded stream and cannot be combined with -workload %s: drop one of the two flags", *workloadName))
	}
	if *tracePath != "" && (set["decode"] || set["decode-dist"]) {
		fatal(fmt.Errorf("-trace replays a recorded stream (its decode budgets included) and cannot be combined with -decode/-decode-dist"))
	}
	if *closedLoop > 0 {
		for _, conflict := range []string{"rates", "workload", "burst", "amplitude", "record", "trace"} {
			if set[conflict] {
				fatal(fmt.Errorf("-closed-loop drives arrivals from completions and cannot be combined with -%s", conflict))
			}
		}
	} else if set["think"] {
		fatal(fmt.Errorf("-think is the closed-loop think time and needs -closed-loop"))
	}
	// Profiling hooks for the performance work: the CPU profile brackets
	// everything from here (setup cost is noise next to the runs), the
	// allocation profile is written on the way out after a final GC so it
	// reflects total allocations, not the live heap.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	dec := workload.Decode{Mean: *decodeMean}
	switch *decodeDist {
	case "geometric":
	case "fixed":
		dec.Deterministic = true
	default:
		fatal(fmt.Errorf("unknown -decode-dist %q (want geometric or fixed)", *decodeDist))
	}

	spec, err := timing.SpecByName(*modelName)
	if err != nil {
		fatal(err)
	}
	dev, err := device.ByName(*devName)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		Spec:             spec,
		Scheme:           baselines.Scheme(*scheme),
		Ratio:            *ratio,
		Device:           dev,
		Replicas:         *replicas,
		MaxBatch:         *batch,
		Sched:            *sched,
		SLOTTFT:          *sloTTFT,
		SLOTBT:           *sloTBT,
		PrefetchPolicy:   *prefetch,
		Router:           *router,
		ChunkPool:        *pool,
		ChunksPerRequest: *chunks,
		ChunkTokens:      *chunkTok,
		QueryTokens:      32,
		Skew:             0.8,
	}
	if *killSpec != "" || *joinSpec != "" {
		events, err := parseEvents(*killSpec, *joinSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Events = events
	}
	if *capacity > 0 {
		capBytes, err := contextBytes("-capacity", int64(*capacity), spec.KVBytes(*chunks**chunkTok))
		if err != nil {
			fatal(err)
		}
		cfg.StoreCapacity = capBytes
	}
	if *tiersSpec != "" {
		tiers, err := parseTiers(*tiersSpec, spec.KVBytes(*chunks**chunkTok))
		if err != nil {
			fatal(err)
		}
		cfg.Tiers = tiers
	}

	placement := dev.Name
	if len(cfg.Tiers) > 0 {
		placement = *tiersSpec
	}
	schedName := *sched
	if schedName == "" {
		schedName = serve.SchedFIFO
	}

	// Trace replay: the recorded stream fixes arrivals, tenants and chunk
	// ids, so rates/workload flags don't apply and the run reproduces the
	// recording run's Result field for field.
	if *tracePath != "" {
		tr, err := workload.LoadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("model=%s scheme=%s placement=%s workload=%s requests=%d replicas=%d batch-cap=%d sched=%s\n",
			spec.Name, cfg.Scheme, placement, tr.Name(), len(tr.Reqs), *replicas, *batch, schedName)
		res, err := serve.RunWorkload(cfg, tr, len(tr.Reqs), len(tr.Reqs)/3, *seed)
		if err != nil {
			fatal(err)
		}
		printResult(res, *verbose)
		return
	}

	// Closed-loop run: the client pool is the load knob, so there is no
	// rates loop — one run, with the realised arrival rate in the Result.
	if *closedLoop > 0 {
		w := workload.ClosedLoop{
			Tenants: *tenants,
			Clients: *closedLoop,
			Think:   *think,
			Chunks:  workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew},
			Decode:  dec,
		}
		fmt.Printf("model=%s scheme=%s placement=%s workload=%s tenants=%d decode=%g pool=%d chunks=%d×%d tokens replicas=%d batch-cap=%d sched=%s\n",
			spec.Name, cfg.Scheme, placement, w.Name(), *tenants, *decodeMean, *pool, *chunks, *chunkTok, *replicas, *batch, schedName)
		res, err := serve.RunWorkload(cfg, w, *n, *n/3, *seed)
		if err != nil {
			fatal(err)
		}
		printResult(res, *verbose)
		return
	}

	var rates []float64
	if *ratesCSV == "" {
		cap0 := float64(*replicas) / spec.FullPrefillTTFT(*chunks**chunkTok+32)
		rates = []float64{cap0 * 0.25, cap0 * 0.5, cap0, cap0 * 2, cap0 * 4}
	} else {
		for _, part := range strings.Split(*ratesCSV, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatal(fmt.Errorf("bad rate %q: %v", part, err))
			}
			rates = append(rates, r)
		}
	}
	if *recordPath != "" && len(rates) != 1 {
		fatal(fmt.Errorf("-record needs exactly one rate, got %d", len(rates)))
	}

	fmt.Printf("model=%s scheme=%s placement=%s workload=%s tenants=%d decode=%g pool=%d chunks=%d×%d tokens replicas=%d batch-cap=%d sched=%s\n",
		spec.Name, cfg.Scheme, placement, *workloadName, *tenants, *decodeMean, *pool, *chunks, *chunkTok, *replicas, *batch, schedName)
	for _, rate := range rates {
		w, err := buildWorkload(*workloadName, rate, *burst, *amplitude, *tenants, dec, cfg)
		if err != nil {
			fatal(err)
		}
		if *recordPath != "" {
			// Validate before generating so broken flags fail with the
			// generator's error instead of an orphaned, half-broken trace.
			if err := w.Validate(); err != nil {
				fatal(err)
			}
			reqs := w.Generate(*n, *seed)
			if err := workload.RecordFile(*recordPath, reqs); err != nil {
				fatal(err)
			}
			fmt.Printf("recorded %d requests to %s\n", len(reqs), *recordPath)
			// Run the recorded stream itself — same Result, no regeneration.
			w = workload.Trace{Label: w.Name(), Reqs: reqs}
		}
		res, err := serve.RunWorkload(cfg, w, *n, *n/3, *seed)
		if err != nil {
			fatal(err)
		}
		printResult(res, *verbose)
	}
}

// buildWorkload constructs the request-stream generator the flags ask
// for. Multi-tenant mixes are Poisson per tenant (disjoint corpus slices,
// fanned-out skew and decode means, drifting popularity on odd tenants).
func buildWorkload(name string, rate, burst, amplitude float64, tenants int, dec workload.Decode, cfg serve.Config) (workload.Workload, error) {
	chunks := workload.Chunks{Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}
	if tenants > 1 {
		if name != "poisson" {
			return nil, fmt.Errorf("-tenants %d implies -workload poisson (got %q)", tenants, name)
		}
		// Drift period: a few popularity rotations across a typical run.
		return workload.TenantMix(tenants, rate, chunks, 100/rate, dec), nil
	}
	switch name {
	case "poisson":
		return workload.Poisson{Rate: rate, Chunks: chunks, Decode: dec}, nil
	case "bursty":
		return workload.Bursty{Rate: rate, Burst: burst, Chunks: chunks, Decode: dec}, nil
	case "diurnal":
		return workload.Diurnal{Rate: rate, Amplitude: amplitude, Chunks: chunks, Decode: dec}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want poisson, bursty or diurnal)", name)
	}
}

// printResult renders one run, with per-tier and per-tenant detail when
// verbose.
func printResult(res serve.Result, verbose bool) {
	fmt.Println(res)
	if !verbose {
		return
	}
	fmt.Printf("  replica-util=%s batch-sizes=%s\n",
		fmtUtils(res.ReplicaUtil), metrics.FormatCounts(res.BatchSizes))
	for _, tu := range res.Tiers {
		fmt.Printf("  tier %-12s hits=%d (%.0f%%) promotions=%d demotions=%d resident=%.1fGB\n",
			tu.Device, tu.Hits, tu.HitRate*100, tu.Promotions, tu.Demotions,
			float64(tu.BytesResident)/1e9)
	}
	for _, tu := range res.Tenants {
		line := fmt.Sprintf("  tenant %-3d requests=%d mean_ttft=%.3fs p95=%.3fs hit=%.0f%% lookups=%d",
			tu.Tenant, tu.Requests, tu.MeanTTFT, tu.P95TTFT, tu.HitRate*100, tu.Lookups)
		if tu.OutputTokens > 0 {
			line += fmt.Sprintf(" tbt=%.3fs e2e=%.3fs tokens=%d", tu.MeanTBT, tu.MeanE2E, tu.OutputTokens)
		}
		if tu.SLOAttainment > 0 {
			line += fmt.Sprintf(" slo=%.0f%%", tu.SLOAttainment*100)
		}
		fmt.Println(line)
	}
	if res.OutputTokens > 0 {
		fmt.Printf("  steps prefill=%.0f%% decode=%.0f%% mixed=%.0f%%\n",
			res.PrefillStepShare*100, res.DecodeStepShare*100, res.MixedStepShare*100)
	}
	if res.StallTime > 0 || res.MeanPrefillDelay > 0 {
		fmt.Printf("  sched stall=%.1fs prefill-delay=%.3fs p95=%.3fs\n",
			res.StallTime, res.MeanPrefillDelay, res.P95PrefillDelay)
	}
	if res.SLOAttainment > 0 || res.SLOViolations > 0 {
		fmt.Printf("  slo attain=%.1f%% ttft-attain=%.1f%% tbt-attain=%.1f%% goodput=%.3f req/s violations=%d\n",
			res.SLOAttainment*100, res.SLOTTFTAttainment*100, res.SLOTBTAttainment*100,
			res.Goodput, res.SLOViolations)
	}
	line := fmt.Sprintf("  router %-8s load-skew=%.2f replica-hits=%s replica-reqs=%v",
		res.Router, res.LoadSkew, fmtUtils(res.ReplicaHitRates), res.ReplicaRequests)
	if res.DuplicationBytes > 0 || res.QueueSkew > 0 {
		line += fmt.Sprintf(" queue-skew=%.2f dup=%.1fGB",
			res.QueueSkew, float64(res.DuplicationBytes)/1e9)
	}
	fmt.Println(line)
	if res.Failovers > 0 || res.ReroutedRequests > 0 {
		fmt.Printf("  failover kills=%d rerouted=%d rewarm-stall=%.2fs recovery=%.2fs\n",
			res.Failovers, res.ReroutedRequests, res.ReWarmStall, res.RecoveryTime)
	}
	if res.HBMHitRate > 0 || res.TierStallTime > 0 {
		line := fmt.Sprintf("  prefetch tier-stall=%.2fs hbm-hit=%.0f%%",
			res.TierStallTime, res.HBMHitRate*100)
		if res.PrefetchIssued > 0 {
			line += fmt.Sprintf(" issued=%d hits=%d accuracy=%.0f%% wasted=%.1fGB",
				res.PrefetchIssued, res.PrefetchHits,
				float64(res.PrefetchHits)/float64(res.PrefetchIssued)*100,
				float64(res.PrefetchWastedBytes)/1e9)
		}
		fmt.Println(line)
	}
}

// parseEvents turns the -kill ("time:replica,...") and -join
// ("time:count,...") specs into one membership schedule sorted by time
// (kills before joins on ties, matching the flags' reading order). The
// schedule itself is validated by Config.Validate.
func parseEvents(killSpec, joinSpec string) ([]serve.MembershipEvent, error) {
	var events []serve.MembershipEvent
	parse := func(spec, what string) ([][2]float64, error) {
		var out [][2]float64
		for _, part := range strings.Split(spec, ",") {
			ts, vs, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				return nil, fmt.Errorf("bad %s event %q: want time:%s", what, part, what)
			}
			at, err := strconv.ParseFloat(strings.TrimSpace(ts), 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s time %q: %v", what, ts, err)
			}
			v, err := strconv.Atoi(strings.TrimSpace(vs))
			if err != nil {
				return nil, fmt.Errorf("bad %s value %q: %v", what, vs, err)
			}
			out = append(out, [2]float64{at, float64(v)})
		}
		return out, nil
	}
	if killSpec != "" {
		kills, err := parse(killSpec, "replica")
		if err != nil {
			return nil, err
		}
		for _, k := range kills {
			events = append(events, serve.MembershipEvent{At: k[0], Kill: int(k[1])})
		}
	}
	if joinSpec != "" {
		joins, err := parse(joinSpec, "count")
		if err != nil {
			return nil, err
		}
		for _, j := range joins {
			events = append(events, serve.MembershipEvent{At: j[0], Join: int(j[1])})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// parseTiers turns "gpu-hbm:8,cpu-ram:64,nvme-ssd:0" into tier configs,
// with capacities counted in contexts of ctxBytes (0 = unbounded).
func parseTiers(s string, ctxBytes int64) ([]serve.TierConfig, error) {
	var tiers []serve.TierConfig
	for _, part := range strings.Split(s, ",") {
		name, contexts, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad tier %q: want device:contexts", part)
		}
		dev, err := device.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		nCtx, err := strconv.Atoi(strings.TrimSpace(contexts))
		if err != nil || nCtx < 0 {
			return nil, fmt.Errorf("bad tier capacity %q: want a context count ≥ 0", contexts)
		}
		capBytes, err := contextBytes("-tiers", int64(nCtx), ctxBytes)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, serve.TierConfig{Device: dev, Capacity: capBytes})
	}
	for i, tc := range tiers[:len(tiers)-1] {
		if tc.Capacity == 0 {
			return nil, fmt.Errorf("tier %d (%s): capacity 0 (unbounded) is only allowed on the bottom tier", i, tc.Device.Name)
		}
	}
	return tiers, nil
}

// contextBytes converts n contexts of ctxBytes each into bytes, rejecting
// a count whose byte total would wrap around; name is the flag that gave n.
func contextBytes(name string, n, ctxBytes int64) (int64, error) {
	if ctxBytes > 0 && n > math.MaxInt64/ctxBytes {
		return 0, fmt.Errorf("%s: %d contexts of %d bytes overflow a byte count (at most %d)",
			name, n, ctxBytes, math.MaxInt64/ctxBytes)
	}
	return n * ctxBytes, nil
}

func fmtUtils(utils []float64) string {
	parts := make([]string, len(utils))
	for i, u := range utils {
		parts[i] = fmt.Sprintf("%.0f%%", u*100)
	}
	return strings.Join(parts, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cacheblend-serve:", err)
	os.Exit(1)
}
