package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// closedLoopW is the shared closed-loop scenario for these tests: three
// tenant pools of concurrent clients over the schedConfig corpus.
func closedLoopW(clients int) workload.ClosedLoop {
	return workload.ClosedLoop{
		Tenants: 3,
		Clients: clients,
		Think:   2,
		Chunks:  workload.Chunks{Pool: 120, PerRequest: 6, Skew: 0.8},
		Decode:  workload.Decode{Mean: 32},
	}
}

// TestClosedLoopServe runs a closed-loop session end to end: the run
// completes exactly the budgeted request count, the realised rate is an
// output, and per-tenant telemetry covers every tenant pool.
func TestClosedLoopServe(t *testing.T) {
	w := closedLoopW(4)
	res, err := RunWorkload(schedConfig(SchedFIFO), w, 300, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 240 {
		t.Fatalf("measured %d requests, want n-warmup = 240", res.Requests)
	}
	if res.Rate <= 0 || math.IsInf(res.Rate, 0) {
		t.Fatalf("realised rate %v, want a positive finite output", res.Rate)
	}
	if res.Throughput <= 0 || res.MeanTTFT <= 0 {
		t.Fatalf("degenerate telemetry: throughput %v ttft %v", res.Throughput, res.MeanTTFT)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("%d tenant rows, want 3", len(res.Tenants))
	}
}

// TestClosedLoopDeterministic: feedback-driven arrivals depend on the
// schedule, but the schedule is deterministic — identical config and seed
// must reproduce the Result byte for byte; a different seed must not.
func TestClosedLoopDeterministic(t *testing.T) {
	w := closedLoopW(4)
	run := func(seed int64) string {
		res, err := RunWorkload(schedConfig(SchedChunkedPrefill), w, 200, 40, seed)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(res)
		return string(j)
	}
	a, b := run(11), run(11)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if run(12) == a {
		t.Fatal("different seed reproduced the same Result")
	}
}

// TestClosedLoopRejectsEvents: membership churn replays in-flight work
// with original arrivals, which has no meaning under feedback arrivals.
func TestClosedLoopRejectsEvents(t *testing.T) {
	cfg := schedConfig(SchedFIFO)
	cfg.Replicas = 2
	cfg.Events = []MembershipEvent{{At: 5, Kill: 0}}
	_, err := RunWorkload(cfg, closedLoopW(4), 200, 40, 7)
	if err == nil {
		t.Fatal("closed-loop run with membership events did not fail")
	}
	if _, err := RunWorkload(schedConfig(SchedFIFO), closedLoopW(4), 100, 100, 7); err == nil {
		t.Fatal("warmup >= n did not fail for a closed-loop run")
	}
}

// TestClosedLoopRejectsUnboundedThink: a think time whose draws could
// overflow an arrival to +Inf fails validation with an error naming it,
// instead of returning a NaN Result with a nil error.
func TestClosedLoopRejectsUnboundedThink(t *testing.T) {
	w := closedLoopW(2)
	w.Tenants, w.Think = 1, 1e308
	res, err := RunWorkload(schedConfig(SchedFIFO), w, 10, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "think time") {
		t.Fatalf("think %v: err %v (MeanTTFT %v), want an error naming the think time", w.Think, err, res.MeanTTFT)
	}
	w.Think = workload.MaxThink
	res, err = RunWorkload(schedConfig(SchedFIFO), w, 10, 2, 1)
	if err != nil {
		t.Fatalf("think at the cap: %v", err)
	}
	if math.IsNaN(res.MeanTTFT) || math.IsNaN(res.MeanTBT) || res.Rate <= 0 {
		t.Fatalf("think at the cap: MeanTTFT %v MeanTBT %v Rate %v", res.MeanTTFT, res.MeanTBT, res.Rate)
	}
}

// TestClosedLoopSelfThrottling is the load-control property the closed
// loop exists for: arrivals wait for completions, so the admission queue
// can never hold more than the client pool, no matter how slow the
// server. An open-loop stream at overload keeps arriving regardless and
// its queue grows without bound.
func TestClosedLoopSelfThrottling(t *testing.T) {
	closed, err := RunWorkload(schedConfig(SchedFIFO), closedLoopW(8), 400, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := 3 * 8 // Tenants × Clients
	if closed.MeanQueueDepth > float64(pool) {
		t.Fatalf("closed-loop mean queue depth %.1f exceeds the %d-client pool", closed.MeanQueueDepth, pool)
	}
	open, err := RunWorkload(schedConfig(SchedFIFO), burstyDecode(3), 400, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	if open.MeanQueueDepth <= closed.MeanQueueDepth {
		t.Fatalf("open-loop overload queue depth %.1f not above closed-loop's %.1f — overload scenario too light",
			open.MeanQueueDepth, closed.MeanQueueDepth)
	}
}

// TestSLOTelemetryGating: SLO fields appear exactly when targets are set,
// whatever the policy (here the default), and stay zero otherwise.
func TestSLOTelemetryGating(t *testing.T) {
	w := burstyDecode(0.6)
	plain, err := RunWorkload(schedConfig(""), w, 300, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SLOAttainment != 0 || plain.Goodput != 0 || plain.SLOViolations != 0 {
		t.Fatalf("no targets set but SLO telemetry populated: %+v", plain)
	}
	cfg := schedConfig("")
	cfg.SLOTTFT, cfg.SLOTBT = 2, 0.1
	slo, err := RunWorkload(cfg, w, 300, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if slo.SLOAttainment <= 0 || slo.SLOAttainment > 1 {
		t.Fatalf("attainment %v outside (0,1]", slo.SLOAttainment)
	}
	if slo.SLOTTFTAttainment < slo.SLOAttainment || slo.SLOTBTAttainment < slo.SLOAttainment {
		t.Fatalf("joint attainment %v above a per-dimension rate (ttft %v, tbt %v)",
			slo.SLOAttainment, slo.SLOTTFTAttainment, slo.SLOTBTAttainment)
	}
	met := int64(math.Round(slo.SLOAttainment * float64(slo.Requests)))
	if slo.SLOViolations != int64(slo.Requests)-met {
		t.Fatalf("violations %d inconsistent with attainment %v over %d requests",
			slo.SLOViolations, slo.SLOAttainment, slo.Requests)
	}
	// Targets no run can miss: attainment 1, goodput == throughput.
	cfg.SLOTTFT, cfg.SLOTBT = 1e9, 0
	easy, err := RunWorkload(cfg, w, 300, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if easy.SLOAttainment != 1 || easy.SLOViolations != 0 {
		t.Fatalf("unmissable target missed: attainment %v, %d violations", easy.SLOAttainment, easy.SLOViolations)
	}
	if math.Abs(easy.Goodput-easy.Throughput) > 1e-9 {
		t.Fatalf("goodput %v != throughput %v with every request meeting SLO", easy.Goodput, easy.Throughput)
	}
	// Telemetry must not perturb the schedule itself.
	strip := func(r Result) string {
		r.SLOAttainment, r.SLOTTFTAttainment, r.SLOTBTAttainment, r.Goodput, r.SLOViolations = 0, 0, 0, 0, 0
		for i := range r.Tenants {
			r.Tenants[i].SLOAttainment = 0
		}
		j, _ := json.Marshal(r)
		return string(j)
	}
	if strip(slo) != strip(plain) {
		t.Fatalf("setting SLO targets changed the fifo schedule:\n%s\n%s", strip(slo), strip(plain))
	}
}

// TestSLOPolicyClosedLoop runs the slo policy on the traffic it is built
// for — closed-loop multi-tenant — and checks the per-tenant attainment
// telemetry is populated and sane.
func TestSLOPolicyClosedLoop(t *testing.T) {
	cfg := sloConfig()
	cfg.SLOTBT = 0.1
	res, err := RunWorkload(cfg, closedLoopW(6), 300, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOAttainment <= 0 || res.SLOAttainment > 1 {
		t.Fatalf("attainment %v outside (0,1]", res.SLOAttainment)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("%d tenant rows, want 3", len(res.Tenants))
	}
	for _, tu := range res.Tenants {
		if tu.SLOAttainment < 0 || tu.SLOAttainment > 1 {
			t.Fatalf("tenant %d attainment %v outside [0,1]", tu.Tenant, tu.SLOAttainment)
		}
	}
}

// TestSLOPolicyStarvationBound mirrors the decode-priority bound: the
// slo policy deprioritises late requests, but the aging class (waiting
// past StarveLimit×SLOTTFT) jumps the queue, so no request's prefill
// delay can run away even at sustained overload.
func TestSLOPolicyStarvationBound(t *testing.T) {
	w := burstyDecode(1.5) // well past capacity: the queue is never empty for long
	fifo, err := RunWorkload(schedConfig(SchedFIFO), w, 300, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sloConfig()
	cfg.StarveLimit = 6
	slo, err := RunWorkload(cfg, w, 300, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if slo.Requests != fifo.Requests {
		t.Fatalf("slo completed %d of the stream's requests, FIFO %d", slo.Requests, fifo.Requests)
	}
	if math.IsInf(slo.P95PrefillDelay, 0) || math.IsNaN(slo.P95PrefillDelay) || slo.P95PrefillDelay <= 0 {
		t.Fatalf("slo p95 prefill delay degenerate: %v", slo.P95PrefillDelay)
	}
	if slo.P95PrefillDelay > 4*fifo.P95PrefillDelay {
		t.Fatalf("slo p95 prefill delay %.3f blew past the starvation bound (FIFO %.3f)",
			slo.P95PrefillDelay, fifo.P95PrefillDelay)
	}
}
