// Package engine executes CacheBlend's fusion pipeline with real
// concurrency, implementing the three interfaces the paper's vLLM
// integration describes (§6):
//
//	fetch_kv(text, layer)  → a loader goroutine that brings one layer of a
//	                         chunk's KV cache "into GPU memory" (here: into
//	                         the fused cache), paying the storage device's
//	                         simulated read latency;
//	prefill_layer(...)     → the fusor running the selective recompute of
//	                         one layer on the transformer substrate;
//	synchronize()          → the per-layer barrier: the fusor blocks until
//	                         the layer's KV has finished loading.
//
// The loader stays exactly one layer ahead of the fusor (the paper's
// two-thread pipelining): while layer i is being recomputed, layer i+1 is
// being fetched, so whichever of loading and recompute is slower sets the
// pace and the other is hidden. The engine reports both the measured wall
// time and a per-layer timeline so tests can assert genuine overlap.
//
// Device read delays are simulated with a configurable time scale (real
// nanoseconds per simulated second) so tests run fast while the overlap
// behaviour stays observable.
package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Config controls the pipelined execution.
type Config struct {
	// Model is the transformer to run.
	Model *model.Model
	// Device is the storage tier the chunk KV caches are read from.
	Device device.Device
	// RecomputeRatio is the target HKVD fraction per layer.
	RecomputeRatio float64
	// SelectionLayer as in blend.Options (0 = layer 1).
	SelectionLayer int
	// TimeScale converts simulated seconds of device delay into real
	// sleep time: realDelay = simSeconds × TimeScale. Zero disables
	// sleeping (pure functional execution).
	TimeScale time.Duration
	// Pipelined selects whether the loader runs ahead of the fusor
	// (true, the paper's design) or strictly before it (false — the
	// sequential baseline for measuring the benefit).
	Pipelined bool
}

// Request is one fusion job: pre-computed chunk caches plus fresh suffix.
type Request struct {
	Chunks       []*kvcache.Cache
	ChunkTokens  [][]int
	SuffixTokens []int
}

// LayerTiming records when one layer was loaded and computed (relative to
// the start of the request, in real time).
type LayerTiming struct {
	LoadDone    time.Duration
	ComputeDone time.Duration
}

// Result is the fused cache plus execution measurements.
type Result struct {
	// Cache is the fused full-sequence KV cache.
	Cache *kvcache.Cache
	// Hidden holds the suffix tokens' final residual rows.
	Hidden *tensor.Matrix
	// SuffixStart indexes the first suffix token.
	SuffixStart int
	// Tokens is the fused token sequence.
	Tokens []int
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// Layers holds the per-layer timeline.
	Layers []LayerTiming
	// SelectedPerLayer counts recomputed context tokens per layer.
	SelectedPerLayer []int
}

// Run executes the fusion pipeline for one request.
func (cfg Config) Run(req Request) (*Result, error) {
	m := cfg.Model
	if m == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	if len(req.Chunks) != len(req.ChunkTokens) {
		return nil, fmt.Errorf("engine: %d caches vs %d token lists", len(req.Chunks), len(req.ChunkTokens))
	}
	mc := m.Cfg
	selLayer := cfg.SelectionLayer
	if selLayer <= 0 {
		selLayer = 1
	}
	if selLayer >= mc.Layers {
		selLayer = mc.Layers - 1
	}

	// Assemble the fused token sequence and allocate the (empty) fused
	// cache; the loader fills it layer by layer.
	var tokens []int
	starts := make([]int, len(req.Chunks))
	off := 0
	for ci, cc := range req.Chunks {
		if cc.Tokens != len(req.ChunkTokens[ci]) {
			return nil, fmt.Errorf("engine: chunk %d cache/token mismatch", ci)
		}
		starts[ci] = off
		tokens = append(tokens, req.ChunkTokens[ci]...)
		off += cc.Tokens
	}
	suffixStart := off
	tokens = append(tokens, req.SuffixTokens...)
	fused := m.NewCache(len(tokens))

	start := time.Now()
	timings := make([]LayerTiming, mc.Layers)

	// fetch_kv: copy one layer of every chunk's KV into the fused cache,
	// re-rotating keys to their fused positions, after the simulated
	// device read delay. loaded is closed per layer by the loader
	// goroutine; synchronize() is a receive on it.
	loaded := make([]chan struct{}, mc.Layers)
	for i := range loaded {
		loaded[i] = make(chan struct{})
	}
	angles := make([]float32, mc.RotaryDims) // fetchLayer's; layers load one at a time
	fetchLayer := func(li int) {
		var bytes int64
		for _, cc := range req.Chunks {
			bytes += cc.LayerBytes()
		}
		if cfg.TimeScale > 0 && bytes > 0 {
			time.Sleep(time.Duration(cfg.Device.ReadTime(bytes) * float64(cfg.TimeScale)))
		}
		for ci, cc := range req.Chunks {
			base := starts[ci]
			copy(fused.K[li].Data[base*fused.KVDim:], cc.K[li].Data)
			copy(fused.V[li].Data[base*fused.KVDim:], cc.V[li].Data)
			if m.Rope != nil {
				m.Rope.Angles(angles, base-cc.BasePos)
				fused.RotateKeys(li, base, base+cc.Tokens, mc.KVHeads, mc.HeadDim, angles)
			}
		}
		timings[li].LoadDone = time.Since(start)
		close(loaded[li])
	}

	if cfg.Pipelined {
		// The loader goroutine streams layers in order, one ahead of the
		// fusor.
		go func() {
			for li := 0; li < mc.Layers; li++ {
				fetchLayer(li)
			}
		}()
	}

	synchronize := func(li int) {
		if !cfg.Pipelined {
			fetchLayer(li) // strictly sequential: load now, then compute
			return
		}
		<-loaded[li]
	}

	// The fusor: same algorithm as blend.Fuse, expressed against the
	// synchronize/prefill_layer interfaces.
	res := &Result{
		Cache:            fused,
		SuffixStart:      suffixStart,
		Tokens:           tokens,
		SelectedPerLayer: make([]int, mc.Layers),
	}
	ctxLen := suffixStart
	total := len(tokens)
	idx := allIdx(total)
	h := m.EmbedTokens(tokens)

	// Full recompute below the selection layer.
	for li := 0; li < selLayer; li++ {
		synchronize(li)
		h, _ = m.ForwardLayerPartial(li, h, idx, fused, false)
		res.SelectedPerLayer[li] = ctxLen
		timings[li].ComputeDone = time.Since(start)
	}

	// Selection layer: measure deviation, pick HKVD.
	synchronize(selLayer)
	preK := fused.K[selLayer].Clone()
	preV := fused.V[selLayer].Clone()
	m.ProjectKV(selLayer, h, idx, fused)
	dev := make([]float64, ctxLen)
	for j := 0; j < ctxLen; j++ {
		dev[j] = tensor.L2Diff(fused.K[selLayer].Row(j), preK.Row(j)) +
			tensor.L2Diff(fused.V[selLayer].Row(j), preV.Row(j))
	}
	keep := int(cfg.RecomputeRatio*float64(ctxLen) + 0.5)
	hkvd := kvcache.TopKIndices(dev, keep)
	sort.Ints(hkvd)

	sel := append(append([]int{}, hkvd...), suffixIdx(suffixStart, total)...)
	hs := rowsFor(h, idx, sel)
	hs, _ = m.ForwardLayerPartial(selLayer, hs, sel, fused, false)
	res.SelectedPerLayer[selLayer] = len(hkvd)
	timings[selLayer].ComputeDone = time.Since(start)

	// Remaining layers: recompute the fixed HKVD ∪ suffix set (the
	// engine demonstrates pipelining; gradual filtering lives in blend).
	for li := selLayer + 1; li < mc.Layers; li++ {
		synchronize(li)
		hs, _ = m.ForwardLayerPartial(li, hs, sel, fused, false)
		res.SelectedPerLayer[li] = len(hkvd)
		timings[li].ComputeDone = time.Since(start)
	}

	res.Hidden = rowsFor(hs, sel, suffixIdx(suffixStart, total))
	res.Wall = time.Since(start)
	res.Layers = timings
	return res, nil
}

// PipelineTime is the analytic twin of Run's goroutine pipeline: the
// completion time of a loader streaming `layers` layers at loadLayer
// seconds each, one ahead of a fusor spending compLayer seconds per
// layer, where layer i's recompute starts only after both its KV load
// and layer i-1's recompute finish. Whichever side is slower paces the
// pipeline and the other is hidden. The serving runtime uses this as the
// per-replica execution model for blended prefills.
func PipelineTime(layers int, loadLayer, compLayer float64) float64 {
	loadDone, compDone := 0.0, 0.0
	for i := 0; i < layers; i++ {
		loadDone += loadLayer
		start := loadDone
		if compDone > start {
			start = compDone
		}
		compDone = start + compLayer
	}
	return compDone
}

// DecodeStepTime is the analytic cost of one decode iteration over a
// batch of `width` sequences: perToken seconds for the pacing sequence,
// plus `marginal` of that for every additional sequence. Decode is
// memory-bandwidth-bound — each step streams the full weights once for
// the whole batch and only the per-sequence KV reads grow with width —
// so the marginal factor is far below prefill's FLOP-bound batch
// overhead (the serving runtime defaults it to 0.08 vs prefill's 0.35).
// Width below 1 is treated as 1. The serving runtime uses this as the
// per-step execution model for decode-only batches, the way it uses
// PipelineTime for blended prefills.
func DecodeStepTime(perToken float64, width int, marginal float64) float64 {
	if width < 1 {
		width = 1
	}
	return perToken * (1 + marginal*float64(width-1))
}

// ChunkedStepTime is the analytic cost of one budgeted mixed step — the
// Sarathi-style iteration a chunked-prefill scheduler runs: a bounded
// prefill slice (the longest prefilling member's share of the step's
// token budget, `slice` seconds) piggybacked on the batch's decode
// tokens. Whichever of the slice and the decode token is longer paces
// the step; each prefilling member beyond the pacing one adds the
// FLOP-bound prefill marginal and each decoding member the far smaller
// memory-bound decode marginal. With no prefiller the step is exactly
// DecodeStepTime; with no decoder it is a budgeted prefill batch. As
// long as the budget keeps the slice at or below a whole chunk's step,
// a budgeted mixed step never exceeds the unbudgeted one — the decoders
// it carries run near decode cadence instead of being stalled for the
// full chunk, which is the head-of-line blocking the policy removes.
func ChunkedStepTime(slice, decodeUnit float64, prefillers, decoders int, prefillMarginal, decodeMarginal float64) float64 {
	if prefillers <= 0 {
		return DecodeStepTime(decodeUnit, decoders, decodeMarginal)
	}
	pace := slice
	if decoders > 0 && decodeUnit > pace {
		pace = decodeUnit
	}
	return pace * (1 + prefillMarginal*float64(prefillers-1) + decodeMarginal*float64(decoders))
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func suffixIdx(start, total int) []int {
	idx := make([]int, total-start)
	for i := range idx {
		idx[i] = start + i
	}
	return idx
}

// rowsFor extracts the rows of h (rows keyed by sorted positions `from`)
// for positions `want` ⊆ from.
func rowsFor(h *tensor.Matrix, from, want []int) *tensor.Matrix {
	out := tensor.New(len(want), h.Cols)
	fi := 0
	for wi, w := range want {
		for fi < len(from) && from[fi] < w {
			fi++
		}
		if fi >= len(from) || from[fi] != w {
			panic(fmt.Sprintf("engine: position %d missing from row set", w))
		}
		copy(out.Row(wi), h.Row(fi))
	}
	return out
}
