package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/blend"
	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

var testCfg = model.Config{
	Name: "engine-test", Layers: 6, Heads: 4, KVHeads: 2, HeadDim: 8,
	FFNDim: 32, Vocab: 64, RotaryDims: 8, RopeBase: 10000, Norm: model.NormRMS, Eps: 1e-5,
}

func makeRequest(m *model.Model, nChunks, chunkLen, suffixLen int, seed int64) Request {
	g := tensor.NewRNG(seed)
	var req Request
	for c := 0; c < nChunks; c++ {
		toks := make([]int, chunkLen)
		for i := range toks {
			toks[i] = g.Intn(m.Cfg.Vocab)
		}
		req.ChunkTokens = append(req.ChunkTokens, toks)
		req.Chunks = append(req.Chunks, m.Prefill(toks, 0, false).Cache)
	}
	suffix := make([]int, suffixLen)
	for i := range suffix {
		suffix[i] = g.Intn(m.Cfg.Vocab)
	}
	req.SuffixTokens = suffix
	return req
}

func TestEngineMatchesBlendFusor(t *testing.T) {
	// Run is blend's fusor with a flat schedule and no gradual filter, so
	// pipelined and sequential runs must give its fused cache, suffix
	// hidden rows, HKVD counts and suffix start exactly. Float equality
	// treats -0 and +0 as equal: Run's loader also rotates keys by a zero
	// delta, which can flip the sign of a zero entry.
	m := model.NewRandom(testCfg, 1)
	req := makeRequest(m, 3, 10, 5, 2)
	ref := blend.Fuse(blend.Input{
		Model: m, Chunks: req.Chunks, ChunkTokens: req.ChunkTokens,
		SuffixTokens: req.SuffixTokens,
	}, blend.Options{
		Mode: blend.ModeBlend, RecomputeRatio: 0.2,
		ScheduleDecay: []float64{1.0}, DisableGradualFilter: true,
	})
	equal := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	for _, pipelined := range []bool{true, false} {
		eng := Config{Model: m, Device: device.CPURAM, RecomputeRatio: 0.2, Pipelined: pipelined}
		got, err := eng.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		for li := 0; li < testCfg.Layers; li++ {
			if !equal(got.Cache.K[li].Data, ref.Cache.K[li].Data) {
				t.Errorf("pipelined=%v: layer %d keys differ from the blend fusor", pipelined, li)
			}
			if !equal(got.Cache.V[li].Data, ref.Cache.V[li].Data) {
				t.Errorf("pipelined=%v: layer %d values differ from the blend fusor", pipelined, li)
			}
		}
		if got.Hidden.Rows != ref.Hidden.Rows || !equal(got.Hidden.Data, ref.Hidden.Data) {
			t.Errorf("pipelined=%v: suffix hidden rows differ from the blend fusor", pipelined)
		}
		for li, n := range ref.SelectedPerLayer {
			if got.SelectedPerLayer[li] != n {
				t.Errorf("pipelined=%v: layer %d selected %d, blend %d", pipelined, li, got.SelectedPerLayer[li], n)
			}
		}
		if got.SuffixStart != ref.SuffixStart {
			t.Errorf("pipelined=%v: suffix start %d, blend %d", pipelined, got.SuffixStart, ref.SuffixStart)
		}
	}
}

func TestEnginePipelinedEqualsSequentialOutput(t *testing.T) {
	m := model.NewRandom(testCfg, 3)
	req := makeRequest(m, 2, 8, 4, 4)
	pip, err := Config{Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.3, Pipelined: true}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Config{Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.3, Pipelined: false}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	for li := 0; li < testCfg.Layers; li++ {
		if tensor.MaxAbsDiff(pip.Cache.K[li].Data, seq.Cache.K[li].Data) != 0 {
			t.Fatalf("pipelining changed layer %d keys", li)
		}
	}
	if tensor.MaxAbsDiff(pip.Hidden.Data, seq.Hidden.Data) != 0 {
		t.Fatal("pipelining changed outputs")
	}
}

func TestEngineOverlapSavesWallTime(t *testing.T) {
	// With a slow simulated device, the pipelined engine must finish well
	// before the sequential one, and its layer timeline must show layer
	// i+1's load finishing before layer i's compute would have allowed a
	// sequential start.
	// Pipelining only pays when per-layer compute and per-layer loading
	// are on the same scale, so this test uses a wider model (real
	// compute in the tens of milliseconds per layer) and a device tuned
	// so loading takes a comparable time.
	bigCfg := model.Config{
		Name: "engine-overlap", Layers: 6, Heads: 8, KVHeads: 8, HeadDim: 32,
		FFNDim: 512, Vocab: 64, RotaryDims: 16, RopeBase: 10000,
		Norm: model.NormRMS, Eps: 1e-5,
	}
	m := model.NewRandom(bigCfg, 5)
	req := makeRequest(m, 3, 60, 8, 6)
	scale := time.Second
	var layerBytes int64
	for _, c := range req.Chunks {
		layerBytes += c.LayerBytes()
	}
	// Calibrate loading to the compute speed of this machine (and of this
	// build — the race detector slows compute ~10×): measure a pure
	// compute run, then tune the device so loading one layer takes about
	// one measured layer's compute. That keeps the two pipeline sides on
	// the same scale wherever the test runs.
	base, err := Config{Model: m, Device: device.CPURAM, RecomputeRatio: 0.2,
		Pipelined: false, TimeScale: 0}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	layerComp := base.Wall / time.Duration(bigCfg.Layers)
	layerLoad := layerComp
	if layerLoad < 10*time.Millisecond {
		layerLoad = 10 * time.Millisecond // stay above sleep granularity
	}
	slow := device.Device{Name: "test-slow",
		ReadBW: float64(layerBytes) / layerLoad.Seconds(), WriteBW: 1e9, Latency: 0}

	pip, err := Config{Model: m, Device: slow, RecomputeRatio: 0.2,
		Pipelined: true, TimeScale: scale}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Config{Model: m, Device: slow, RecomputeRatio: 0.2,
		Pipelined: false, TimeScale: scale}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	// The schedule can hide up to (Layers-1)×min(load, compute) of the
	// sequential run; require at least half of that, so the bound scales
	// with however this machine's compute/load balance came out instead
	// of assuming a fixed ratio.
	hideable := layerLoad
	if layerComp < hideable {
		hideable = layerComp
	}
	gain := time.Duration(bigCfg.Layers-1) * hideable
	if pip.Wall >= seq.Wall-gain/2 {
		t.Fatalf("pipelining saved too little: pipelined %v vs sequential %v (expected ≥%v saved)",
			pip.Wall, seq.Wall, gain/2)
	}
	// Genuine overlap: some layer's load completed before the previous
	// layer's compute finished.
	overlapped := false
	for li := 1; li < testCfg.Layers; li++ {
		if pip.Layers[li].LoadDone < pip.Layers[li-1].ComputeDone {
			overlapped = true
		}
	}
	if !overlapped {
		t.Fatal("no overlap observed in the layer timeline")
	}
}

func TestEngineTimelineMonotone(t *testing.T) {
	m := model.NewRandom(testCfg, 7)
	req := makeRequest(m, 2, 8, 4, 8)
	res, err := Config{Model: m, Device: device.CPURAM, RecomputeRatio: 0.2, Pipelined: true}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	for li := 0; li < testCfg.Layers; li++ {
		if res.Layers[li].ComputeDone < res.Layers[li].LoadDone {
			t.Fatalf("layer %d computed before its KV was loaded", li)
		}
		if li > 0 && res.Layers[li].ComputeDone < res.Layers[li-1].ComputeDone {
			t.Fatalf("layer %d finished before layer %d", li, li-1)
		}
	}
	if res.Wall < res.Layers[testCfg.Layers-1].ComputeDone {
		t.Fatal("wall time earlier than last layer completion")
	}
}

func TestEngineRecoversCrossChunkAnswer(t *testing.T) {
	// End-to-end on the constructed model: the pipelined engine performs
	// the same repair as the reference fusor.
	m, v := qamodel.Build()
	qent, bridge, ans := v.Entities[0], v.Entities[1], v.Entities[12]
	relA, relB := v.RelA[0], v.RelB[0]
	chunkA := append([]int{v.Period}, append(v.Anchor(1, relB, bridge), v.Fact(bridge, relA, qent)...)...)
	chunkB := append([]int{v.Period}, v.ValueHalf(ans, 1)...)
	var caches []*kvcache.Cache
	for _, c := range [][]int{chunkA, chunkB} {
		caches = append(caches, m.Prefill(c, 0, false).Cache)
	}
	res, err := Config{
		Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.2,
		SelectionLayer: qamodel.SelectionLayer, Pipelined: true,
	}.Run(Request{
		Chunks: caches, ChunkTokens: [][]int{chunkA, chunkB},
		SuffixTokens: v.QueryTokens(relA, qent, relB),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := qamodel.Answer(m, res.Cache, res.Hidden.Row(res.Hidden.Rows-1))
	if got != ans {
		t.Fatalf("engine answered %q want %q", v.Name(got), v.Name(ans))
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := (Config{}).Run(Request{}); err == nil {
		t.Fatal("nil model must error")
	}
	m := model.NewRandom(testCfg, 9)
	req := makeRequest(m, 2, 8, 4, 10)
	req.ChunkTokens = req.ChunkTokens[:1]
	if _, err := (Config{Model: m, Device: device.CPURAM}).Run(req); err == nil {
		t.Fatal("mismatched chunks must error")
	}
	bad := makeRequest(m, 1, 8, 4, 11)
	bad.ChunkTokens[0] = bad.ChunkTokens[0][:4]
	if _, err := (Config{Model: m, Device: device.CPURAM}).Run(bad); err == nil {
		t.Fatal("cache/token length mismatch must error")
	}
}

func TestEngineInputsNotMutated(t *testing.T) {
	m := model.NewRandom(testCfg, 13)
	req := makeRequest(m, 2, 8, 4, 14)
	before := make([]*kvcache.Cache, len(req.Chunks))
	for i, c := range req.Chunks {
		before[i] = c.Clone()
	}
	if _, err := (Config{Model: m, Device: device.CPURAM, RecomputeRatio: 0.2, Pipelined: true}).Run(req); err != nil {
		t.Fatal(err)
	}
	for i, c := range req.Chunks {
		for li := 0; li < testCfg.Layers; li++ {
			if tensor.MaxAbsDiff(c.K[li].Data, before[i].K[li].Data) != 0 {
				t.Fatalf("chunk %d mutated", i)
			}
		}
	}
}

func TestPipelineTimeClosedForm(t *testing.T) {
	cases := []struct {
		name             string
		layers           int
		load, comp, want float64
	}{
		{"zero layers", 0, 1, 1, 0},
		{"load-bound: compute hides behind loading", 4, 2, 1, 9},    // 4×2 + final compute
		{"compute-bound: loading hides behind compute", 4, 1, 2, 9}, // first load + 4×2
		{"balanced", 3, 1, 1, 4},
		{"free loading degenerates to pure compute", 5, 0, 2, 10},
		{"free compute degenerates to pure loading", 5, 2, 0, 10},
	}
	for _, c := range cases {
		if got := PipelineTime(c.layers, c.load, c.comp); got != c.want {
			t.Fatalf("%s: PipelineTime(%d, %v, %v) = %v, want %v",
				c.name, c.layers, c.load, c.comp, got, c.want)
		}
	}
}

func TestChunkedStepTimeModel(t *testing.T) {
	const pm, dm = 0.35, 0.08
	// No prefiller: exactly the decode-step cost.
	if got, want := ChunkedStepTime(0, 0.025, 0, 4, pm, dm), DecodeStepTime(0.025, 4, dm); got != want {
		t.Fatalf("decode-only: %v, want %v", got, want)
	}
	// No decoder: a budgeted prefill batch — slice paced, prefill marginal.
	if got, want := ChunkedStepTime(0.1, 0, 3, 0, pm, dm), 0.1*(1+pm*2); got != want {
		t.Fatalf("prefill-only: %v, want %v", got, want)
	}
	// Pace is whichever of slice and decode token is longer.
	if got, want := ChunkedStepTime(0.01, 0.025, 1, 2, pm, dm), 0.025*(1+dm*2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("decode-paced mixed step: %v, want %v", got, want)
	}
	if got, want := ChunkedStepTime(0.1, 0.025, 1, 2, pm, dm), 0.1*(1+dm*2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("slice-paced mixed step: %v, want %v", got, want)
	}
	// Monotone in both width dimensions, and decoders are far cheaper to
	// add than prefillers (memory-bound vs FLOP-bound marginals).
	base := ChunkedStepTime(0.1, 0.025, 2, 3, pm, dm)
	if ChunkedStepTime(0.1, 0.025, 3, 3, pm, dm) <= base ||
		ChunkedStepTime(0.1, 0.025, 2, 4, pm, dm) <= base {
		t.Fatal("adding a member of either phase must lengthen the step")
	}
	dp := ChunkedStepTime(0.1, 0.025, 2, 4, pm, dm) - base
	pp := ChunkedStepTime(0.1, 0.025, 3, 3, pm, dm) - base
	if dp >= pp {
		t.Fatalf("marginal decoder %v not cheaper than marginal prefiller %v", dp, pp)
	}
	// The Sarathi claim the serving policy relies on: with the slice
	// bounded below the whole-chunk step, the budgeted mixed step never
	// exceeds the unbudgeted one (legacy prices every member with the
	// prefill marginal at the whole-chunk pace).
	for _, width := range []int{2, 4, 8} {
		legacy := 0.15 * (1 + pm*float64(width-1))
		budgeted := ChunkedStepTime(0.05, 0.025, 1, width-1, pm, dm)
		if budgeted >= legacy {
			t.Fatalf("width %d: budgeted mixed step %v not below whole-chunk step %v", width, budgeted, legacy)
		}
	}
}

func TestPipelineTimeBounds(t *testing.T) {
	// The pipelined schedule can never beat the slower side alone, nor be
	// worse than running both sides back to back.
	for _, layers := range []int{1, 8, 32, 80} {
		load, comp := 0.7, 0.3
		p := PipelineTime(layers, load, comp)
		slower := float64(layers) * load
		seq := float64(layers) * (load + comp)
		if p < slower || p > seq {
			t.Fatalf("layers=%d: pipeline %v outside [%v, %v]", layers, p, slower, seq)
		}
	}
}
