package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/timing"
	"repro/internal/workload"
)

// TestDecodeDisabledResultUnchanged: a prefill-only stream must produce a
// Result whose JSON carries none of the decode fields.
func TestDecodeDisabledResultUnchanged(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	res, err := RunWorkload(cfg, workload.Poisson{Rate: 0.5, Chunks: testWorkloadChunks(cfg)}, 200, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(res)
	for _, field := range []string{"MeanTBT", "P95TBT", "MeanE2E", "P95E2E",
		"OutputTokens", "TokenThroughput", "PrefillStepShare", "DecodeStepShare", "MixedStepShare"} {
		if strings.Contains(string(blob), field) {
			t.Fatalf("prefill-only Result leaked decode field %s:\n%s", field, blob)
		}
	}
	if strings.Contains(res.String(), "tbt=") {
		t.Fatalf("prefill-only Result line grew decode columns: %s", res)
	}
}

// TestTTFTAtTransitionAndE2E pins the two-phase timing math on an
// uncontended single request: TTFT is recorded when prefill finishes (the
// first token), not at retirement, and end-to-end latency adds exactly
// DecodeTokens unbatched decode steps.
func TestTTFTAtTransitionAndE2E(t *testing.T) {
	cfg := baseConfig(baselines.FullRecompute)
	const D = 40
	tr := workload.Trace{Label: "one", Reqs: []workload.Request{
		{Arrival: 0, Chunks: []int{0, 1, 2}, DecodeTokens: D},
	}}
	res, err := RunWorkload(cfg, tr, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTTFT := cfg.Spec.FullPrefillTTFT(3*cfg.ChunkTokens + cfg.QueryTokens)
	if math.Abs(res.MeanTTFT-wantTTFT) > 1e-9 {
		t.Fatalf("TTFT %.6f, want prefill-only %.6f (recorded at retirement?)", res.MeanTTFT, wantTTFT)
	}
	wantE2E := wantTTFT + D*cfg.Spec.DecodeSecPerToken
	if math.Abs(res.MeanE2E-wantE2E) > 1e-9 {
		t.Fatalf("E2E %.6f, want %.6f", res.MeanE2E, wantE2E)
	}
	if math.Abs(res.MeanTBT-cfg.Spec.DecodeSecPerToken) > 1e-12 {
		t.Fatalf("solo TBT %.6f, want the unbatched decode step %.6f", res.MeanTBT, cfg.Spec.DecodeSecPerToken)
	}
	if res.OutputTokens != D+1 {
		t.Fatalf("OutputTokens %d, want %d (first token + %d decode steps)", res.OutputTokens, D+1, D)
	}
	if res.DecodeStepShare == 0 || res.PrefillStepShare == 0 {
		t.Fatalf("step shares missing: %+v", res)
	}
	if s := res.PrefillStepShare + res.DecodeStepShare + res.MixedStepShare; math.Abs(s-1) > 1e-12 {
		t.Fatalf("step shares sum to %v", s)
	}
}

// TestDecodeSlowsCompletionNotTTFT: giving every request a generation
// budget must raise end-to-end latency and keep emitting tokens, while
// at a near-idle arrival rate TTFT stays in the same regime — decode
// occupancy adds some queueing (a request can land behind a neighbour's
// generation), but nowhere near the full generation time per request.
func TestDecodeSlowsCompletionNotTTFT(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	ch := testWorkloadChunks(cfg)
	const rate, n, warmup = 0.05, 200, 50
	plain, err := RunWorkload(cfg, workload.Poisson{Rate: rate, Chunks: ch}, n, warmup, 9)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := RunWorkload(cfg, workload.Poisson{Rate: rate, Chunks: ch,
		Decode: workload.Decode{Mean: 20, Deterministic: true}}, n, warmup, 9)
	if err != nil {
		t.Fatal(err)
	}
	genTime := 20 * cfg.Spec.DecodeSecPerToken
	if dec.MeanTTFT > plain.MeanTTFT+genTime/2 {
		t.Fatalf("idle-rate TTFT absorbed the generation time: %.4f vs %.4f (+%.4f gen)",
			dec.MeanTTFT, plain.MeanTTFT, genTime)
	}
	if dec.MeanE2E < dec.MeanTTFT+15*cfg.Spec.DecodeSecPerToken {
		t.Fatalf("E2E %.4f barely above TTFT %.4f for 20-token generations", dec.MeanE2E, dec.MeanTTFT)
	}
	if dec.TokenThroughput <= dec.Throughput {
		t.Fatalf("token throughput %.2f should exceed request throughput %.2f", dec.TokenThroughput, dec.Throughput)
	}
}

// TestDecodeKVPressureDrivesDemotions is the generation-aware KV pressure
// acceptance check: at tight HBM capacity, enabling decode must strictly
// increase top-tier demotions versus the identical run without decode —
// growing generation KV competes with cached chunks for the fast tier.
func TestDecodeKVPressureDrivesDemotions(t *testing.T) {
	kv := timing.Mistral7B.KVBytes(512)
	cfg := tieredConfig(6*kv, 30*kv, 0)
	cfg.Replicas = 2
	cfg.MaxBatch = 4
	ch := testWorkloadChunks(cfg)
	const rate, n, warmup, seed = 1.0, 400, 100, 21

	run := func(mean float64) Result {
		w := workload.Poisson{Rate: rate, Chunks: ch}
		if mean > 0 {
			w.Decode = workload.Decode{Mean: mean, Deterministic: true}
		}
		res, err := RunWorkload(cfg, w, n, warmup, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	dec := run(64)
	if dec.Tiers[0].Demotions <= plain.Tiers[0].Demotions {
		t.Fatalf("decode KV growth did not raise HBM demotions: %d (decode) vs %d (prefill-only)",
			dec.Tiers[0].Demotions, plain.Tiers[0].Demotions)
	}
}

// TestMixedBatchesInflateTBT: under load with batching, decode tokens get
// paced by neighbours' prefill chunk steps, so the observed TBT must sit
// clearly above the unbatched decode step time — and mixed steps must
// actually occur.
func TestMixedBatchesInflateTBT(t *testing.T) {
	cfg := baseConfig(baselines.FullRecompute)
	cfg.MaxBatch = 8
	ch := testWorkloadChunks(cfg)
	res, err := RunWorkload(cfg, workload.Poisson{Rate: 3, Chunks: ch,
		Decode: workload.Decode{Mean: 12, Deterministic: true}}, 300, 75, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.MixedStepShare == 0 {
		t.Fatalf("overloaded prefill+decode run executed no mixed steps: %+v", res)
	}
	if res.MeanTBT < 1.5*cfg.Spec.DecodeSecPerToken {
		t.Fatalf("contended TBT %.4f not inflated above the unbatched step %.4f",
			res.MeanTBT, cfg.Spec.DecodeSecPerToken)
	}
}

// TestDecodePerTenantTelemetry: a decode-enabled tenant mix reports
// per-tenant TBT/E2E/token counts consistent with the aggregate, and the
// tenant with the longer generations accumulates more output tokens per
// request.
func TestDecodePerTenantTelemetry(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	m := workload.TenantMix(3, 1.0, workload.Chunks{Pool: 150, PerRequest: 6, Skew: 0.9}, 0,
		workload.Decode{Mean: 24})
	res, err := RunWorkload(cfg, m, 600, 150, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("want 3 tenants, got %+v", res.Tenants)
	}
	var tokens int64
	for _, tu := range res.Tenants {
		if tu.OutputTokens <= 0 || tu.MeanTBT <= 0 || tu.MeanE2E < tu.MeanTTFT {
			t.Fatalf("tenant %d decode telemetry implausible: %+v", tu.Tenant, tu)
		}
		tokens += tu.OutputTokens
	}
	if tokens != res.OutputTokens {
		t.Fatalf("tenant tokens sum to %d, aggregate %d", tokens, res.OutputTokens)
	}
	perReq := func(tu TenantUsage) float64 { return float64(tu.OutputTokens) / float64(tu.Requests) }
	if perReq(res.Tenants[2]) <= perReq(res.Tenants[0]) {
		t.Fatalf("fanned-out decode means not visible per tenant: %+v", res.Tenants)
	}
}

// TestDecodeTraceReplayReproducesResult extends the record/replay
// acceptance to decode-carrying traces: the JSONL round trip must
// reproduce the generating run's Result — decode telemetry included —
// field for field.
func TestDecodeTraceReplayReproducesResult(t *testing.T) {
	cfg := baseConfig(baselines.CacheBlend)
	cfg.Replicas = 2
	cfg.MaxBatch = 4
	w := workload.Bursty{Rate: 1.5, Burst: 6, Chunks: testWorkloadChunks(cfg),
		Decode: workload.Decode{Mean: 16}}
	const n, warmup, seed = 300, 75, 33
	orig, err := RunWorkload(cfg, w, n, warmup, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := workload.Record(&buf, w.Generate(n, seed)); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunWorkload(cfg, workload.Trace{Label: "t", Reqs: reqs}, n, warmup, 999)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(orig)
	b, _ := json.Marshal(replay)
	if string(a) != string(b) {
		t.Fatalf("decode trace replay drifted:\n%s\n%s", a, b)
	}
	if orig.OutputTokens == 0 {
		t.Fatal("decode trace produced no output tokens")
	}
}

// TestTraceDecodeAboveCapRejected: a replayed trace's decode budgets are
// bounded like a generated stream's. A budget past the request cap fails
// RunWorkload with an error that names it, before any step is simulated,
// and the JSONL loader rejects the same line.
func TestTraceDecodeAboveCapRejected(t *testing.T) {
	huge := workload.MaxDecodeTokens + 1
	reqs := []workload.Request{{Arrival: 0, Chunks: []int{1, 2}}, {Arrival: 1, Chunks: []int{3}, DecodeTokens: huge}}
	_, err := RunWorkload(baseConfig(baselines.CacheBlend), workload.Trace{Label: "huge", Reqs: reqs}, 2, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "decode tokens") {
		t.Fatalf("trace with decode %d: err %v, want one naming decode tokens", huge, err)
	}
	line := fmt.Sprintf(`{"t":1,"chunks":[3],"decode":%d}`, huge)
	if _, err := workload.Load(strings.NewReader(line)); err == nil || !strings.Contains(err.Error(), "decode tokens") {
		t.Fatalf("loading a trace with decode %d: err %v, want one naming decode tokens", huge, err)
	}
}

// TestDecodeHandlesReleased: a decoding request names its KV key at
// admission and releases the handle at retirement, so after a decode run
// the run's table holds exactly the chunk keys, and it never held more
// than those plus one decode key per batch slot of every replica.
func TestDecodeHandlesReleased(t *testing.T) {
	cfg := routerTestConfig(RouterAffinity)
	cfg.PrefetchPolicy = PrefetchPredictive
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wave := routerTestMix(4).Generate(600, 3)
	distinct := map[int]bool{}
	for i := range wave {
		wave[i].DecodeTokens = 4 + i%13
		for _, id := range wave[i].Chunks {
			distinct[id] = true
		}
	}
	c := newCluster(cfg, wave, 0)
	if res := c.run(); res.OutputTokens == 0 {
		t.Fatal("the run decoded nothing")
	}
	if n := c.names.Len(); n != len(distinct) {
		t.Fatalf("after the run the table holds %d handles, want the %d chunk keys", n, len(distinct))
	}
	for id := range distinct {
		if c.names.ID(c.chunkKeyOf(id)) != chunkKey(cfg.Spec.Name, id) {
			t.Fatalf("chunk %d's handle names another key", id)
		}
	}
	if peak, bound := c.names.Issued(), len(distinct)+c.maxBatch*len(c.workers); peak > bound || peak <= len(distinct) {
		t.Fatalf("the table peaked at %d handles, want above the %d chunk keys and at most %d",
			peak, len(distinct), bound)
	}
}
