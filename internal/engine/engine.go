// Package engine executes CacheBlend's fusion pipeline with real
// concurrency, implementing the three interfaces the paper's vLLM
// integration describes (§6):
//
//	fetch_kv(text, layer)  → a loader goroutine that brings one layer of a
//	                         chunk's KV cache "into GPU memory" (here: into
//	                         the fused cache), paying the storage device's
//	                         simulated read latency;
//	prefill_layer(...)     → blend's fusor, blend.Recompute, which runs the
//	                         selective recompute layer by layer on the
//	                         transformer substrate;
//	synchronize()          → the per-layer barrier: Recompute's per-layer
//	                         callback, which blocks until the layer's KV
//	                         has finished loading.
//
// The engine owns fetch_kv and synchronize(), the device delay and the
// timeline; the recompute is blend's own code. It selects HKVD tokens once,
// on the selection layer, at the flat ratio RecomputeRatio, and keeps that
// set on every deeper layer (blend's DisableGradualFilter).
//
// The loader fetches only the layers the fusor reads, from the selection
// layer up (blend.FirstReadLayer): every layer below it is recomputed for
// every token, which overwrites each loaded row before attention reads
// it. So the fusor recomputes those layers while the first real load is
// in flight, and from the selection layer on the loader runs ahead of it
// (the paper's two-thread pipelining): while layer i is being recomputed,
// layer i+1 and beyond are being fetched, so whichever of loading and
// recompute is slower sets the pace and the other is hidden. The engine
// reports both the measured wall time and a per-layer timeline so tests
// can assert genuine overlap.
//
// Device read delays are simulated with a configurable time scale (real
// nanoseconds per simulated second) so tests run fast while the overlap
// behaviour stays observable.
package engine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/blend"
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
	// sleeping (pure functional execution); a positive scale requires a
	// Device that passes Validate, and a negative one is an error.
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
	// LoadDone is when the layer's chunk KV finished loading; 0 for a
	// layer below the selection layer, which is recomputed, not fetched.
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

// Run executes the fusion pipeline for one request: blend.Assemble, then
// blend.Recompute with a loader goroutine (or, unpipelined, a load per
// layer) filling the fused cache ahead of it. Its outputs are bit for bit
// those of blend.Fuse with a flat ScheduleDecay and DisableGradualFilter,
// except that its loader also rotates keys by a zero position delta,
// which can turn a -0 key entry into +0.
func (cfg Config) Run(req Request) (*Result, error) {
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("engine: negative time scale %v", cfg.TimeScale)
	}
	if cfg.TimeScale > 0 {
		if err := cfg.Device.Validate(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	m := cfg.Model
	fus, err := blend.Assemble(blend.Input{Model: m, Chunks: req.Chunks,
		ChunkTokens: req.ChunkTokens, SuffixTokens: req.SuffixTokens})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	mc := m.Cfg
	fused := fus.Cache
	firstLoad := blend.FirstReadLayer(blend.ModeBlend, cfg.SelectionLayer, mc.Layers)
	// Every layer holds the same bytes, so every fetch waits the same.
	var layerBytes int64
	for _, cc := range req.Chunks {
		layerBytes += cc.LayerBytes()
	}
	var delay time.Duration
	if cfg.TimeScale > 0 && layerBytes > 0 {
		ns := cfg.Device.ReadTime(layerBytes) * float64(cfg.TimeScale)
		if ns >= math.MaxInt64 {
			return nil, fmt.Errorf("engine: a layer's %g ns load delay overflows time.Duration", ns)
		}
		delay = time.Duration(ns)
	}

	start := time.Now()
	timings := make([]LayerTiming, mc.Layers)

	// fetch_kv: copy one layer of every chunk's KV into the fused cache,
	// re-rotating keys to their fused positions, after the simulated
	// device read delay. loaded is closed per layer by the loader
	// goroutine; synchronize() is a receive on it. Layers below firstLoad
	// are never fetched.
	loaded := make([]chan struct{}, mc.Layers)
	for i := range loaded {
		loaded[i] = make(chan struct{})
	}
	angles := make([]float32, mc.RotaryDims) // fetchLayer's; layers load one at a time
	fetchLayer := func(li int) {
		if delay > 0 {
			time.Sleep(delay)
		}
		off := 0
		for _, cc := range req.Chunks {
			copy(fused.K[li].Data[off*fused.KVDim:], cc.K[li].Data)
			copy(fused.V[li].Data[off*fused.KVDim:], cc.V[li].Data)
			if m.Rope != nil {
				// Unlike blend.Fuse, a zero delta is rotated too, which
				// can turn a -0 key entry into +0.
				m.Rope.Angles(angles, off-cc.BasePos)
				fused.RotateKeys(li, off, off+cc.Tokens, mc.KVHeads, mc.HeadDim, angles)
			}
			off += cc.Tokens
		}
		timings[li].LoadDone = time.Since(start)
		close(loaded[li])
	}

	if cfg.Pipelined {
		// The loader goroutine streams the read layers in order, ahead of
		// the fusor.
		go func() {
			for li := firstLoad; li < mc.Layers; li++ {
				fetchLayer(li)
			}
		}()
	}

	// prefill_layer is blend's fusor. It calls synchronize(li) before it
	// first touches layer li, so layer li-1's compute is done by then.
	synchronize := func(li int) {
		if li > 0 {
			timings[li-1].ComputeDone = time.Since(start)
		}
		switch {
		case li < firstLoad:
			// Recomputed for every token: nothing to wait for.
		case !cfg.Pipelined:
			fetchLayer(li) // strictly sequential: load now, then compute
		default:
			<-loaded[li]
		}
	}
	blend.Recompute(m, fus, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: cfg.RecomputeRatio,
		SelectionLayer: cfg.SelectionLayer, ScheduleDecay: []float64{1}, DisableGradualFilter: true}, synchronize)
	timings[mc.Layers-1].ComputeDone = time.Since(start)

	return &Result{
		Cache:            fused,
		Hidden:           fus.Hidden,
		SuffixStart:      fus.SuffixStart,
		Tokens:           fus.Tokens,
		Wall:             time.Since(start),
		Layers:           timings,
		SelectedPerLayer: fus.SelectedPerLayer,
	}, nil
}

// PipelineTime is the analytic model of a loader/fusor pipeline: the
// completion time of a loader streaming `layers` layers at loadLayer
// seconds each, ahead of a fusor spending compLayer seconds per layer,
// where layer i's recompute starts only after both its KV load and layer
// i-1's recompute finish. Whichever side is slower paces the pipeline and
// the other is hidden. It charges a load on every layer: that is the
// serving runtime's assumption, which uses this as the per-replica
// execution model for blended prefills. Run does not load the layers
// below the selection layer, so it can finish earlier than this model
// predicts.
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
