package model_test

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCache(a, b *kvcache.Cache) bool {
	for i := range a.K {
		if !sameBits(a.K[i].Data, b.K[i].Data) || !sameBits(a.V[i].Data, b.V[i].Data) {
			return false
		}
	}
	return true
}

// deadHeads counts the (layer, head) pairs none of whose output dims has a
// nonzero Wo row.
func deadHeads(m *model.Model) int {
	hd, dead := m.Cfg.HeadDim, 0
	for _, lw := range m.Layer {
		for hh := 0; hh < m.Cfg.Heads; hh++ {
			if tensor.L2(lw.Wo.Data[hh*hd*lw.Wo.Cols:(hh+1)*hd*lw.Wo.Cols]) == 0 {
				dead++
			}
		}
	}
	return dead
}

// TestForwardLayerPartialAttnFlagBitIdentical checks that collecting the
// attention matrix changes no bit of the hidden rows or the cache, on the
// constructed QA model, which has heads whose output Wo never reads (the
// forward pass skips them unless attention is collected), and on a dense
// random model. Every collected head row must still be a distribution.
func TestForwardLayerPartialAttnFlagBitIdentical(t *testing.T) {
	qa, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases, cfg.ChunksPerCase, cfg.FactsPerChunk = 1, 4, 4
	c := dataset.Generate(v, cfg).Cases[0]
	var qaToks []int
	for _, ch := range c.Chunks {
		qaToks = append(qaToks, ch...)
	}
	qaToks = append(qaToks, c.Query...)
	if deadHeads(qa) == 0 {
		t.Fatal("the QA model has no head that Wo ignores, so the skip goes untested")
	}

	sim := model.NewRandom(model.Mistral7BSim, 3)
	g := tensor.NewRNG(4)
	simToks := make([]int, 40)
	for i := range simToks {
		simToks[i] = g.Intn(sim.Cfg.Vocab)
	}

	for _, tc := range []struct {
		m    *model.Model
		toks []int
	}{{qa, qaToks}, {sim, simToks}} {
		m, n := tc.m, len(tc.toks)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		// Every third token plus the last, as a selective layer would run.
		var sel []int
		for i := 0; i < n-1; i += 3 {
			sel = append(sel, i)
		}
		sel = append(sel, n-1)

		plain, collected := m.NewCache(n), m.NewCache(n)
		plain.BasePos, collected.BasePos = 5, 5
		// run computes layer li over idx without and with attention
		// collection, on the two caches, and compares everything.
		run := func(li int, hp, hc *tensor.Matrix, idx []int) (*tensor.Matrix, *tensor.Matrix) {
			outP, _ := m.ForwardLayerPartial(li, hp, idx, plain, false)
			outC, attn := m.ForwardLayerPartial(li, hc, idx, collected, true)
			if !sameBits(outP.Data, outC.Data) || !sameCache(plain, collected) {
				t.Fatalf("%s layer %d, %d rows: collecting attention changed the result", m.Cfg.Name, li, len(idx))
			}
			for r, j := range idx {
				for hh := 0; hh < m.Cfg.Heads; hh++ {
					var sum float64
					for _, w := range attn.Row(r)[hh*n : hh*n+j+1] {
						sum += float64(w)
					}
					if math.Abs(sum-1) > 1e-4 {
						t.Fatalf("%s layer %d row %d head %d: attention sums to %v", m.Cfg.Name, li, j, hh, sum)
					}
				}
			}
			return outP, outC
		}
		hp, hc := m.EmbedTokens(tc.toks), m.EmbedTokens(tc.toks)
		for li := 0; li < m.Cfg.Layers; li++ {
			// A selective pass, then the full pass that feeds the next layer.
			hs := tensor.New(len(sel), hp.Cols)
			for r, j := range sel {
				copy(hs.Row(r), hp.Row(j))
			}
			run(li, hs, hs, sel)
			hp, hc = run(li, hp, hc, all)
		}
	}
}
