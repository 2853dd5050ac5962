package serve

import (
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/engine"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// stepCluster builds a bare cluster good enough to call stepTime.
func stepCluster() *cluster {
	c := &cluster{cfg: baseConfig(baselines.CacheBlend)}
	c.resolve()
	return c
}

// randomBatch draws a batch of members with random step units and phases.
func randomBatch(g *tensor.RNG, n int) []*member {
	batch := make([]*member, n)
	for i := range batch {
		batch[i] = &member{unit: 0.01 + g.Float64(), decoding: g.Float64() < 0.5}
	}
	return batch
}

// TestStepTimeProperties is the satellite property test: across random
// mixed prefill/decode batches, one replica step must (a) be dominated by
// the longest member — never shorter than its unit, (b) be monotone in
// batch size — adding any member never shortens the step, and (c) price a
// decode-only batch with the engine's decode-step cost and any prefill
// presence with the prefill batch overhead.
func TestStepTimeProperties(t *testing.T) {
	g := tensor.NewRNG(17)
	c := stepCluster()
	for trial := 0; trial < 2000; trial++ {
		n := 1 + g.Intn(12)
		batch := randomBatch(g, n)
		step := c.stepTime(batch)

		longest, anyPrefill := 0.0, false
		for _, m := range batch {
			if m.unit > longest {
				longest = m.unit
			}
			if !m.decoding {
				anyPrefill = true
			}
		}
		if step < longest {
			t.Fatalf("trial %d: step %.4f below longest member %.4f", trial, step, longest)
		}
		// Exact pricing by phase mix.
		want := longest * (1 + batchOverhead*float64(n-1))
		if !anyPrefill {
			want = engine.DecodeStepTime(longest, n, decodeOverhead)
		}
		if math.Abs(step-want) > 1e-12 {
			t.Fatalf("trial %d: step %.6f, want %.6f (prefill=%v, n=%d)", trial, step, want, anyPrefill, n)
		}
		// Monotone in batch size: append one member of either phase.
		for _, decoding := range []bool{false, true} {
			grown := append(append([]*member{}, batch...),
				&member{unit: 0.01 + g.Float64(), decoding: decoding})
			if gs := c.stepTime(grown); gs < step-1e-12 {
				t.Fatalf("trial %d: adding a member (decoding=%v) shrank the step: %.6f -> %.6f",
					trial, decoding, step, gs)
			}
		}
	}
}

// TestStepTimeSolo pins the unbatched degenerate cases: a lone prefill
// step costs exactly its unit, a lone decode step exactly the per-token
// decode time — no batch overhead of either kind.
func TestStepTimeSolo(t *testing.T) {
	c := stepCluster()
	if got := c.stepTime([]*member{{unit: 0.2}}); got != 0.2 {
		t.Fatalf("solo prefill step %.4f, want 0.2", got)
	}
	if got := c.stepTime([]*member{{unit: 0.025, decoding: true}}); got != 0.025 {
		t.Fatalf("solo decode step %.4f, want 0.025", got)
	}
}

// TestDecodeStepTimeModel pins the engine's decode-step cost: width 1 is
// the bare per-token time, each extra sequence adds the marginal factor,
// and widths below 1 clamp.
func TestDecodeStepTimeModel(t *testing.T) {
	const perToken, marginal = 0.025, 0.08
	if got := engine.DecodeStepTime(perToken, 1, marginal); got != perToken {
		t.Fatalf("width 1: %.4f, want %.4f", got, perToken)
	}
	if got := engine.DecodeStepTime(perToken, 0, marginal); got != perToken {
		t.Fatalf("width 0 must clamp to 1: %.4f", got)
	}
	prev := 0.0
	for w := 1; w <= 64; w++ {
		got := engine.DecodeStepTime(perToken, w, marginal)
		if got <= prev {
			t.Fatalf("width %d: %.6f not strictly above width %d's %.6f", w, got, w-1, prev)
		}
		want := perToken * (1 + marginal*float64(w-1))
		if math.Abs(got-want) > 1e-15 {
			t.Fatalf("width %d: %.8f, want %.8f", w, got, want)
		}
		prev = got
	}
	// Decode batching amortises: per-sequence cost falls with width.
	perSeq8 := engine.DecodeStepTime(perToken, 8, marginal) / 8
	if perSeq8 >= perToken {
		t.Fatalf("width-8 per-sequence cost %.5f not below unbatched %.5f", perSeq8, perToken)
	}
}

// TestWarmupCutoffConsistent is the satellite acceptance: every metric
// applies TTFT's warmup cutoff. A long-running warmup request finishing
// long before the measured window must leave no trace in the batch-size
// histogram, the queue-depth samples, or replica utilization.
func TestWarmupCutoffConsistent(t *testing.T) {
	cfg := baseConfig(baselines.FullRecompute)
	// Request 0: a 12-chunk heavyweight at t=0, alone. Requests 1..4:
	// 2-chunk requests at t=1000+i, far apart (no queueing, batch of 1).
	reqs := []workload.Request{{Arrival: 0, Chunks: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}}}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, workload.Request{Arrival: 1000 + 10*float64(i), Chunks: []int{0, 1}})
	}
	res, err := RunWorkload(cfg, workload.Trace{Label: "warm", Reqs: reqs}, len(reqs), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 4 measured requests' steps may be observed: 3 steps each
	// (2 chunks + query), all solo.
	var steps int64
	for size, n := range res.BatchSizes {
		if size != 1 {
			t.Fatalf("spread-out measured requests ran a batch of %d: %v", size, res.BatchSizes)
		}
		steps += n
	}
	if steps != 4*3 {
		t.Fatalf("batch histogram holds %d steps, want the 12 post-warmup ones only (warmup leaked in): %v",
			steps, res.BatchSizes)
	}
	if res.MeanQueueDepth != 0 {
		t.Fatalf("queue depth %.3f, want 0 — warmup arrival sampled?", res.MeanQueueDepth)
	}
	// Utilization over the post-warmup window: 4 requests × their prefill
	// time, measured from the first post-warmup arrival (t=1000) to the
	// last completion.
	service := cfg.Spec.FullPrefillTTFT(2*cfg.ChunkTokens + cfg.QueryTokens)
	end := 1030 + service
	wantUtil := 4 * service / (end - 1000)
	if math.Abs(res.ReplicaUtil[0]-wantUtil) > 1e-9 {
		t.Fatalf("replica util %.6f, want %.6f over the post-warmup window (warmup busy time leaked in?)",
			res.ReplicaUtil[0], wantUtil)
	}
}
