// Package timing is the calibrated analytic delay model behind every
// TTFT/throughput experiment. It answers the two questions the paper's
// loading controller asks (§5.1):
//
//	T_recompute(r%, LLM, L) = r% × Prefill(LLM, L)          (footnote 5)
//	T_load(LLM, L, device)  = PerTokenKVSize(LLM) × L / BW  (footnote 6)
//
// and the pipelined-TTFT schedule of §5: per-layer loading overlapped with
// per-layer selective recompute.
//
// The model specs are the paper's real evaluation models (Mistral-7B,
// Yi-34B 8-bit, Llama-70B 8-bit) with prefill times calibrated to the
// published anchors: ~3 s (34B) and ~6 s (70B) for a 4 K-token prefill on
// A40s (§2), and KV sizes from the architectures' layer/head geometry.
// This repository's quality experiments run on scaled-down transformers;
// the timing model speaks for the full-size systems the paper measured, so
// the reproduced TTFT numbers land in the paper's ranges.
package timing

import (
	"fmt"

	"repro/internal/device"
)

// Spec describes a served model for delay estimation.
type Spec struct {
	// Name identifies the model in tables.
	Name string
	// Layers is the transformer depth (drives per-layer pipelining).
	Layers int
	// KVBytesPerTokenLayer is the K+V footprint of one token on one layer
	// (2 × KVHeads × HeadDim × bytes-per-element).
	KVBytesPerTokenLayer int64
	// PrefillLin and PrefillQuad give full-prefill seconds for L tokens as
	// PrefillLin·L + PrefillQuad·L² (the quadratic term is attention).
	PrefillLin, PrefillQuad float64
	// DecodeSecPerToken is the per-output-token decode time.
	DecodeSecPerToken float64
}

// The paper's three evaluation models. Calibration anchors:
//   - Mistral-7B: ~0.8 s full prefill at 4 K on one A40; fp16 KV
//     (32 layers × 2 × 8 KV heads × 128 dims × 2 B = 8 KiB/token/layer is
//     the full-width figure; grouped-query attention gives 4 KiB).
//   - Yi-34B: ~3 s at 4 K (paper §2, Llama-34B class); 8-bit KV.
//   - Llama-70B: ~6 s at 4 K across two A40s; 8-bit KV.
var (
	Mistral7B = Spec{
		Name: "Mistral-7B", Layers: 32, KVBytesPerTokenLayer: 4096,
		PrefillLin: 1.56e-4, PrefillQuad: 9.5e-9, DecodeSecPerToken: 0.025,
	}
	Yi34B = Spec{
		Name: "Yi-34B", Layers: 60, KVBytesPerTokenLayer: 2048,
		PrefillLin: 5.86e-4, PrefillQuad: 3.6e-8, DecodeSecPerToken: 0.060,
	}
	Llama70B = Spec{
		Name: "Llama-70B", Layers: 80, KVBytesPerTokenLayer: 2048,
		PrefillLin: 1.17e-3, PrefillQuad: 7.2e-8, DecodeSecPerToken: 0.090,
	}
)

// Specs lists the evaluation models in paper order.
func Specs() []Spec { return []Spec{Mistral7B, Yi34B, Llama70B} }

// SpecByName returns the named spec.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("timing: unknown model %q", name)
}

// Prefill returns the full-prefill seconds for a context of L tokens.
func (s Spec) Prefill(L int) float64 {
	l := float64(L)
	return s.PrefillLin*l + s.PrefillQuad*l*l
}

// Recompute returns T_recompute(r, LLM, L) = r × Prefill(LLM, L): the
// selective-recompute cost at ratio r (paper footnote 5).
func (s Spec) Recompute(r float64, L int) float64 { return r * s.Prefill(L) }

// RecomputeLayer returns the per-layer selective-recompute seconds.
func (s Spec) RecomputeLayer(r float64, L int) float64 {
	return s.Recompute(r, L) / float64(s.Layers)
}

// KVBytesPerToken returns the whole-model KV footprint of one token.
func (s Spec) KVBytesPerToken() int64 {
	return s.KVBytesPerTokenLayer * int64(s.Layers)
}

// KVBytes returns the KV cache size of an L-token context.
func (s Spec) KVBytes(L int) int64 { return s.KVBytesPerToken() * int64(L) }

// LayerBytes returns the KV size of one layer of an L-token context.
func (s Spec) LayerBytes(L int) int64 { return s.KVBytesPerTokenLayer * int64(L) }

// Load returns T_load(LLM, L, device): seconds to fetch the whole KV cache
// (paper footnote 6).
func (s Spec) Load(L int, d device.Device) float64 { return d.ReadTime(s.KVBytes(L)) }

// LoadLayer returns the seconds to fetch one layer's KV.
func (s Spec) LoadLayer(L int, d device.Device) float64 { return d.ReadTime(s.LayerBytes(L)) }

// TTFT computes the time-to-first-token of a CacheBlend request at
// recompute ratio r with the KV stored on d, with or without the
// §5 per-layer pipelining of loading and recompute.
//
// Pipelined: loading layer i+1 overlaps recomputing layer i. Layer i's
// recompute can start once its KV is loaded and layer i-1's recompute is
// done; TTFT is when the last layer's recompute finishes, plus one decode
// step for the first token.
func (s Spec) TTFT(r float64, L int, d device.Device, pipelined bool) float64 {
	loadLayer := s.LoadLayer(L, d)
	compLayer := s.RecomputeLayer(r, L)
	if !pipelined {
		return float64(s.Layers)*(loadLayer+compLayer) + s.DecodeSecPerToken
	}
	loadDone := 0.0
	compDone := 0.0
	for i := 0; i < s.Layers; i++ {
		loadDone += loadLayer
		start := loadDone
		if compDone > start {
			start = compDone
		}
		compDone = start + compLayer
	}
	return compDone + s.DecodeSecPerToken
}

// FullPrefillTTFT returns the TTFT of full KV recompute (no cache reuse).
func (s Spec) FullPrefillTTFT(L int) float64 {
	return s.Prefill(L) + s.DecodeSecPerToken
}

// FullReuseTTFT returns the TTFT of full KV reuse: pure loading (plus one
// layer-equivalent of positional re-alignment, which is negligible) and
// the suffix prefill is ignored as in the paper's model.
func (s Spec) FullReuseTTFT(L int, d device.Device) float64 {
	return s.Load(L, d) + s.DecodeSecPerToken
}

// PrefixCachingTTFT returns the TTFT of prefix caching where only the
// first of nChunks chunks hits the prefix cache (§3.2): the remaining
// context must be fully prefilled. Following the paper's idealised
// assumption in favour of prefix caching, the prefix's KV loads for free.
func (s Spec) PrefixCachingTTFT(L int, nChunks int) float64 {
	if nChunks <= 0 {
		return s.FullPrefillTTFT(L)
	}
	rest := L - L/nChunks
	return s.Prefill(rest) + s.DecodeSecPerToken
}
