package model_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

// BenchmarkForwardLayerPartial times one layer of the fusion path on a
// 6-chunk RAG job against the constructed QA model: the selection layer,
// with the cache and the layer's input rows taken from a full prefill. The
// all-tokens case is the cost of full recompute per layer; the 15% case
// recomputes the query plus an evenly spaced 15% of the context tokens,
// CacheBlend's default operating point.
func BenchmarkForwardLayerPartial(b *testing.B) {
	m, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases, cfg.ChunksPerCase, cfg.FactsPerChunk = 1, 6, 6
	c := dataset.Generate(v, cfg).Cases[0]
	var toks []int
	for _, ch := range c.Chunks {
		toks = append(toks, ch...)
	}
	ctxLen := len(toks)
	toks = append(toks, c.Query...)

	li := qamodel.SelectionLayer
	cache := m.NewCache(len(toks))
	all := make([]int, len(toks))
	for i := range all {
		all[i] = i
	}
	h := m.EmbedTokens(toks)
	for l := 0; l < li; l++ {
		h, _ = m.ForwardLayerPartial(l, h, all, cache, false)
	}
	m.ForwardLayerPartial(li, h, all, cache, false)

	keep := int(0.15*float64(ctxLen) + 0.5)
	var sel []int
	for i := 0; i < keep; i++ {
		sel = append(sel, i*ctxLen/keep)
	}
	sel = append(sel, all[ctxLen:]...)
	hs := tensor.New(len(sel), h.Cols)
	for r, j := range sel {
		copy(hs.Row(r), h.Row(j))
	}

	cases := []struct {
		name string
		h    *tensor.Matrix
		idx  []int
	}{
		{"all-tokens", h, all},
		{"select-15pct", hs, sel},
	}
	for _, bc := range cases {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.ForwardLayerPartial(li, bc.h, bc.idx, cache, false)
			}
		})
	}
}
