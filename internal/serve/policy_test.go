package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// schedConfig is the shared scenario for the policy tests: CacheBlend
// with a real batch cap, so mixed prefill/decode batches are the norm.
func schedConfig(sched string) Config {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.MaxBatch = 8
	cfg.Sched = sched
	return cfg
}

func burstyDecode(rate float64) workload.Workload {
	return workload.Bursty{Rate: rate, Burst: 8,
		Chunks: workload.Chunks{Pool: 200, PerRequest: 6, Skew: 0.8},
		Decode: workload.Decode{Mean: 32}}
}

func tenantDecode(rate float64) workload.Workload {
	return workload.TenantMix(3, rate,
		workload.Chunks{Pool: 200, PerRequest: 6, Skew: 0.8}, 120,
		workload.Decode{Mean: 32})
}

// sloConfig is schedConfig for the slo policy, which requires a TTFT
// target to schedule against.
func sloConfig() Config {
	cfg := schedConfig(SchedSLO)
	cfg.SLOTTFT = 2
	return cfg
}

// TestSchedValidate pins the policy-axis validation: unknown names and
// knobs paired with policies that ignore them must fail loudly, every
// valid policy name must pass.
func TestSchedValidate(t *testing.T) {
	for _, sched := range []string{"", SchedFIFO, SchedChunkedPrefill, SchedDecodePriority} {
		cfg := schedConfig(sched)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("policy %q rejected: %v", sched, err)
		}
	}
	if err := sloConfig().Validate(); err != nil {
		t.Fatalf("slo policy with a TTFT target rejected: %v", err)
	}
	// Targets only measure attainment outside the slo policy, so they are
	// valid with the default policy too.
	targets := schedConfig("")
	targets.SLOTTFT, targets.SLOTBT = 2, 0.05
	if err := targets.Validate(); err != nil {
		t.Fatalf("SLO targets with the default policy rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"unknown policy", func(c *Config) { c.Sched = "sarathi" }, "scheduling policy"},
		{"slo without target", func(c *Config) { c.Sched = SchedSLO }, "TTFT target"},
		{"negative ttft target", func(c *Config) { c.Sched = SchedFIFO; c.SLOTTFT = -1 }, "TTFT SLO target"},
		{"nan tbt target", func(c *Config) { c.Sched = SchedFIFO; c.SLOTBT = math.NaN() }, "TBT SLO target"},
	}
	for _, tc := range bad {
		cfg := schedConfig("")
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}
}

// emptyMatchesNamed runs the router scenario with base as its Router on a
// tiered, multi-tenant, decode-enabled workload, once with set(cfg, "")
// and once with set(cfg, named). An empty policy name is the named
// default, so both runs must give the same Result, telemetry included;
// the shared telemetry must be populated. It returns the empty run.
func emptyMatchesNamed(t *testing.T, set func(c *Config, policy string), named, base string) Result {
	t.Helper()
	w := tenantDecode(2)
	run := func(policy string) Result {
		cfg := routerTestConfig(base)
		set(&cfg, policy)
		res, err := RunWorkload(cfg, w, 200, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	empty, got := run(""), run(named)
	if empty.Router == "" || empty.MeanPrefillDelay <= 0 || empty.HBMHitRate <= 0 ||
		empty.TierStallTime <= 0 || empty.StallTime <= 0 {
		t.Fatalf("telemetry missing: router=%q prefill-delay=%v hbm=%v tier-stall=%v stall=%v",
			empty.Router, empty.MeanPrefillDelay, empty.HBMHitRate, empty.TierStallTime, empty.StallTime)
	}
	ej, _ := json.Marshal(empty)
	nj, _ := json.Marshal(got)
	if string(ej) != string(nj) {
		t.Fatalf("%q and %q differ:\n empty %s\n named %s", "", named, ej, nj)
	}
	return empty
}

// TestFIFOPolicyMatchesLegacy: the empty (default) Sched is fifo — naming
// "fifo" must reproduce its schedule and scheduling telemetry exactly.
func TestFIFOPolicyMatchesLegacy(t *testing.T) {
	res := emptyMatchesNamed(t, func(c *Config, p string) { c.Sched = p }, SchedFIFO, "")
	if res.StallTime <= 0 || res.MeanPrefillDelay <= 0 || res.P95PrefillDelay <= 0 {
		t.Fatalf("fifo: scheduling telemetry missing under load: stall=%v delay=%v/%v",
			res.StallTime, res.MeanPrefillDelay, res.P95PrefillDelay)
	}
}

// TestPolicyTokenConservation: scheduling reorders and splits work, it
// must never create or lose it. Every policy on the same stream has to
// complete the same requests and emit the same generated tokens.
func TestPolicyTokenConservation(t *testing.T) {
	for _, mk := range []func(float64) workload.Workload{burstyDecode, tenantDecode} {
		w := mk(0.6)
		base, err := RunWorkload(schedConfig(""), w, 300, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{SchedFIFO, SchedChunkedPrefill, SchedDecodePriority, SchedSLO} {
			cfg := schedConfig(sched)
			if sched == SchedSLO {
				cfg.SLOTTFT = 2
			}
			res, err := RunWorkload(cfg, w, 300, 100, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != base.Requests || res.OutputTokens != base.OutputTokens {
				t.Fatalf("%s on %s: completed %d requests / %d tokens, legacy %d / %d — scheduling must conserve work",
					sched, w.Name(), res.Requests, res.OutputTokens, base.Requests, base.OutputTokens)
			}
		}
	}
}

// TestChunkedPrefillRelievesDecoders is the run-level satellite: on the
// bursty and multi-tenant decode workloads, chunked prefill must cut
// mean and tail TBT and the measured stall against FIFO while keeping
// throughput — the TBT win has to come from removing head-of-line
// blocking, not from shedding or deferring work.
func TestChunkedPrefillRelievesDecoders(t *testing.T) {
	for _, mk := range []func(float64) workload.Workload{burstyDecode, tenantDecode} {
		w := mk(0.6)
		fifo, err := RunWorkload(schedConfig(SchedFIFO), w, 300, 100, 7)
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := RunWorkload(schedConfig(SchedChunkedPrefill), w, 300, 100, 7)
		if err != nil {
			t.Fatal(err)
		}
		if chunked.MeanTBT > fifo.MeanTBT || chunked.P95TBT > fifo.P95TBT {
			t.Fatalf("%s: chunked TBT %.4f/%.4f above FIFO's %.4f/%.4f",
				w.Name(), chunked.MeanTBT, chunked.P95TBT, fifo.MeanTBT, fifo.P95TBT)
		}
		if chunked.StallTime >= fifo.StallTime {
			t.Fatalf("%s: chunked stall %.2fs not below FIFO's %.2fs", w.Name(), chunked.StallTime, fifo.StallTime)
		}
		if chunked.Throughput < 0.95*fifo.Throughput {
			t.Fatalf("%s: chunked throughput %.3f fell below FIFO's %.3f", w.Name(), chunked.Throughput, fifo.Throughput)
		}
	}
}

// TestChunkedStepNeverSlowsDecode is the step-level property behind the
// run-level TBT win, in its well-defined form: for any batch, every
// resident decoder emits exactly one token per step under both the
// whole-chunk and the budgeted regime (same per-step decode progress),
// and as long as the budget grants slices no longer than the legacy
// whole-chunk step, the budgeted step never outlasts the legacy one —
// so a decoder's share of each step spent at decode cadence can only
// rise. (The *count* of decode-only steps can fall under chunking —
// prefill spreads over more, shorter steps — which is why the property
// is per-step, not a share of step counts.)
func TestChunkedStepNeverSlowsDecode(t *testing.T) {
	g := tensor.NewRNG(23)
	cfg := schedConfig(SchedChunkedPrefill)
	c := &cluster{cfg: cfg}
	c.resolve()
	// Budget at most 272 tokens: with this geometry (512-token chunks,
	// 32-token query, ≥1 chunk) a legacy step spans at least 272 tokens'
	// worth of service time, so every granted slice fits inside it.
	for trial := 0; trial < 2000; trial++ {
		c.budget = 1 + g.Intn(272)
		n := 1 + g.Intn(8)
		batch := make([]*member, n)
		decoders := 0
		for i := range batch {
			chunks := 1 + g.Intn(8)
			service := 0.05 + g.Float64()
			steps := chunks + 1
			prefTotal := chunks*cfg.ChunkTokens + cfg.QueryTokens
			m := &member{
				unit:      service / float64(steps),
				remaining: steps,
				prefTotal: prefTotal,
				prefDone:  g.Intn(prefTotal),
				perTok:    service / float64(prefTotal),
				decoding:  g.Float64() < 0.5,
			}
			if m.decoding {
				// Mirror the runtime's phase-transition invariant: a
				// decoding member's unit is the per-token decode time.
				m.unit = c.decodeUnit
				decoders++
			}
			batch[i] = m
		}
		budgeted, _ := c.planStep(batch, 0)
		legacy := c.stepTime(batch)
		// Same decode progress either way: one token per resident
		// decoder per step, by construction of the advance loop — so
		// comparing step durations compares per-step decode throughput.
		if decoders == n {
			if math.Abs(budgeted-legacy) > 1e-12 {
				t.Fatalf("trial %d: decode-only step priced differently: %.6f vs %.6f", trial, budgeted, legacy)
			}
			continue
		}
		if budgeted > legacy+1e-12 {
			t.Fatalf("trial %d: budgeted step %.6f outlasts whole-chunk step %.6f (budget %d, %d decoders / %d)",
				trial, budgeted, legacy, c.budget, decoders, n)
		}
	}
}

// TestDecodePriorityStarvationBound: at overload, with decoders present
// at essentially every boundary, decode-priority defers prefills — but
// the aging bound must keep prefill delay finite and within a small
// factor of FIFO's own queueing delay, rather than letting prefills
// starve behind an unbounded decode stream.
func TestDecodePriorityStarvationBound(t *testing.T) {
	w := burstyDecode(1.5) // well past capacity: the queue is never empty for long
	fifo, err := RunWorkload(schedConfig(SchedFIFO), w, 300, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := RunWorkload(schedConfig(SchedDecodePriority), w, 300, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Requests != fifo.Requests {
		t.Fatalf("decode-priority completed %d of the stream's requests, FIFO %d", dp.Requests, fifo.Requests)
	}
	if math.IsInf(dp.P95PrefillDelay, 0) || math.IsNaN(dp.P95PrefillDelay) || dp.P95PrefillDelay <= 0 {
		t.Fatalf("decode-priority p95 prefill delay degenerate: %v", dp.P95PrefillDelay)
	}
	if dp.MeanPrefillDelay <= fifo.MeanPrefillDelay {
		t.Fatalf("decode-priority prefill delay %.3f not above FIFO's %.3f — it never deferred anything?",
			dp.MeanPrefillDelay, fifo.MeanPrefillDelay)
	}
	if dp.P95PrefillDelay > 4*fifo.P95PrefillDelay {
		t.Fatalf("decode-priority p95 prefill delay %.3f blew past the starvation bound (FIFO %.3f)",
			dp.P95PrefillDelay, fifo.P95PrefillDelay)
	}
}

// TestAdmitQuotaContracts pins the policies' admission arithmetic on a
// resolved cluster, including the aging guarantee the starvation bound
// rests on, and the per-step prefill budget each policy resolves to.
func TestAdmitQuotaContracts(t *testing.T) {
	resolved := func(sched string) *cluster {
		c := &cluster{cfg: schedConfig(sched)}
		c.resolve()
		return c
	}
	prefilling := []*member{{}, {}}
	decoding := []*member{{}, {decoding: true}}
	dp := resolved(SchedDecodePriority)
	if q := dp.admitQuota(prefilling, 5, 0); q != 5 {
		t.Fatalf("decode-free batch must admit greedily: quota %d, want 5", q)
	}
	if q := dp.admitQuota(decoding, 5, 0); q != 0 {
		t.Fatalf("fresh decoding batch must defer: quota %d, want 0", q)
	}
	if q := dp.admitQuota(decoding, 5, starveLimit-1); q != 0 {
		t.Fatalf("below the starve limit must still defer: quota %d", q)
	}
	if q := dp.admitQuota(decoding, 5, starveLimit); q != 1 {
		t.Fatalf("aged past the starve limit must admit one: quota %d", q)
	}
	if q := dp.admitQuota(decoding, 0, starveLimit); q != 0 {
		t.Fatalf("aged but full batch must admit nothing: quota %d", q)
	}
	for _, sched := range []string{"", SchedFIFO, SchedChunkedPrefill, SchedSLO} {
		if q := resolved(sched).admitQuota(decoding, 3, 0); q != 3 {
			t.Fatalf("%q: quota %d, want headroom 3", sched, q)
		}
	}
	for sched, want := range map[string]int{
		"": 0, SchedFIFO: 0, SchedDecodePriority: 0,
		SchedChunkedPrefill: prefillBudget, SchedSLO: prefillBudget,
	} {
		if b := resolved(sched).budget; b != want {
			t.Fatalf("%q: budget %d, want %d", sched, b, want)
		}
	}
}
