// Package model implements the transformer substrate that CacheBlend runs
// on: token embeddings, multi-head attention with grouped-query attention
// (GQA) and (optionally partial) rotary positional embeddings, a SwiGLU
// feed-forward block and RMS normalisation.
//
// The single load-bearing primitive is ForwardLayerPartial, which computes
// one layer for an arbitrary subset of token positions while attending
// over the full KV cache — exactly the masked partial-prefill step of
// CacheBlend (§4.2, Figure 5). Full prefill is the special case where the
// subset is every token, which gives a strong correctness anchor: the
// selective path with all tokens selected must reproduce full prefill
// bit-for-bit.
//
// # Weights are immutable after the first forward pass
//
// The first forward pass (ForwardLayerPartial, ProjectKV, Prefill, Logits
// or Generate) indexes the nonzero entries of every weight matrix, and
// every pass multiplies only the indexed entries: the constructed QA model
// is more than 99.8% zeros. A weight that was zero at that first pass is
// never read again, so weights must not change once a model has run;
// builders that start from NewZero and fill in blocks, as package qamodel
// does, must finish first. Skipping zero weights changes no result bit for
// finite inputs.
// Forward passes may run concurrently on one model; each draws its working
// buffers from a per-model pool and allocates only what it returns.
package model

import (
	"fmt"
)

// NormKind selects the pre-attention/pre-FFN normalisation.
type NormKind int

const (
	// NormRMS applies RMS normalisation with learned gains (Llama-style).
	NormRMS NormKind = iota
	// NormNone passes the residual stream through unchanged. The
	// constructed QA model uses this so hand-designed field magnitudes
	// survive across layers.
	NormNone
)

// Config describes a transformer architecture.
type Config struct {
	// Name identifies the configuration in experiment output.
	Name string
	// Layers is the number of transformer layers.
	Layers int
	// Heads is the number of query heads.
	Heads int
	// KVHeads is the number of key/value heads; Heads must be a multiple
	// (grouped-query attention). Equal to Heads for full multi-head.
	KVHeads int
	// HeadDim is the per-head dimension. Hidden size is Heads*HeadDim.
	HeadDim int
	// FFNDim is the SwiGLU inner dimension (0 disables the FFN block).
	FFNDim int
	// Vocab is the embedding-table size.
	Vocab int
	// RotaryDims is how many leading dims of each head's Q/K get rotary
	// position encoding. 0 disables RoPE entirely; HeadDim is full RoPE;
	// anything between is partial rotary (GPT-NeoX style).
	RotaryDims int
	// RopeBase is the rotary frequency base (10000 in Llama/Mistral).
	RopeBase float64
	// Norm selects the normalisation flavour.
	Norm NormKind
	// Eps is the normalisation epsilon.
	Eps float32
	// QKInitScale multiplies the random initialisation of Wq/Wk (0 means
	// 1). Trained transformers have much sharper attention than random
	// initialisation produces; the deviation studies (Figures 6-8) depend
	// on that sharpness — it is what concentrates cross-chunk influence
	// in a small fraction of tokens — so the sim models raise it.
	QKInitScale float64
}

// Hidden returns the residual-stream width.
func (c Config) Hidden() int { return c.Heads * c.HeadDim }

// KVDim returns the flattened per-token KV width.
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim }

// GroupSize returns how many query heads share one KV head.
func (c Config) GroupSize() int { return c.Heads / c.KVHeads }

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %q: Layers must be positive, got %d", c.Name, c.Layers)
	case c.Heads <= 0 || c.KVHeads <= 0:
		return fmt.Errorf("model %q: Heads/KVHeads must be positive, got %d/%d", c.Name, c.Heads, c.KVHeads)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %q: Heads (%d) must be a multiple of KVHeads (%d)", c.Name, c.Heads, c.KVHeads)
	case c.HeadDim <= 0:
		return fmt.Errorf("model %q: HeadDim must be positive, got %d", c.Name, c.HeadDim)
	case c.Vocab <= 0:
		return fmt.Errorf("model %q: Vocab must be positive, got %d", c.Name, c.Vocab)
	case c.RotaryDims < 0 || c.RotaryDims > c.HeadDim:
		return fmt.Errorf("model %q: RotaryDims %d out of range [0,%d]", c.Name, c.RotaryDims, c.HeadDim)
	case c.RotaryDims%2 != 0:
		return fmt.Errorf("model %q: RotaryDims must be even, got %d", c.Name, c.RotaryDims)
	case c.RotaryDims > 0 && c.RopeBase <= 0:
		return fmt.Errorf("model %q: RopeBase must be positive with rotary dims, got %v", c.Name, c.RopeBase)
	case c.FFNDim < 0:
		return fmt.Errorf("model %q: FFNDim must be non-negative, got %d", c.Name, c.FFNDim)
	}
	return nil
}

// Scaled-down stand-ins for the paper's three evaluation models. Depth,
// width and GQA factor differ so cross-model trends (Figures 6–8) are
// exercised on genuinely different architectures, while staying small
// enough to run full prefill references in tests.
var (
	// Mistral7BSim stands in for Mistral-7B (32 layers, 8 KV heads in
	// the real model).
	Mistral7BSim = Config{
		Name: "mistral7b-sim", Layers: 8, Heads: 8, KVHeads: 4, HeadDim: 16,
		FFNDim: 256, Vocab: 512, RotaryDims: 16, RopeBase: 10000, Norm: NormRMS, Eps: 1e-5,
		QKInitScale: 5,
	}
	// Yi34BSim stands in for Yi-34B (60 layers in the real model).
	Yi34BSim = Config{
		Name: "yi34b-sim", Layers: 12, Heads: 10, KVHeads: 5, HeadDim: 16,
		FFNDim: 320, Vocab: 512, RotaryDims: 16, RopeBase: 10000, Norm: NormRMS, Eps: 1e-5,
		QKInitScale: 5,
	}
	// Llama70BSim stands in for Llama-2-70B (80 layers, 8 KV heads in
	// the real model).
	Llama70BSim = Config{
		Name: "llama70b-sim", Layers: 16, Heads: 12, KVHeads: 4, HeadDim: 16,
		FFNDim: 384, Vocab: 512, RotaryDims: 16, RopeBase: 10000, Norm: NormRMS, Eps: 1e-5,
		QKInitScale: 5,
	}
)

// SimConfigs lists the three scaled-down model stand-ins in paper order.
func SimConfigs() []Config {
	return []Config{Mistral7BSim, Yi34BSim, Llama70BSim}
}
